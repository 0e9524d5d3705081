package la

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// compareApply checks z from the component-interleaved kernel against the
// expanded one entry by entry with ==, and returns how many of the equal
// entries differ in the sign of a zero.
func compareApply(t *testing.T, what string, got, want []float64) (signZeros int) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: z[%d] = %v, expanded %v", what, i, got[i], want[i])
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			signZeros++
		}
	}
	return signZeros
}

// expandKron returns the explicit expansion A ⊗ I_k of a scalar matrix a
// as a block matrix with k x k blocks a_ij·I_k, on a's pattern: the
// storage the NS operator had before it was stored as A.
func expandKron(a *BSRMat, k int) *BSRMat {
	e := NewBAIJFromSparsity(a.scatter, k, a.NRowNodes, a.NColNodes, a.sp)
	refillKron(e, a)
	return e
}

// refillKron copies a's current values onto the diagonals of e's blocks.
func refillKron(e, a *BSRMat) {
	k := e.Bs
	for j, v := range a.vals {
		for d := 0; d < k; d++ {
			e.vals[j*k*k+d*k+d] = v
		}
	}
}

// TestILU0KronMatchesExpanded pins the ILU(0) and the SpMV of a scalar
// operator applied as A ⊗ I_k (SetComps) — no-slip rows pinned to
// identity, with and without a zero pivot — to those of its explicit
// expansion: every factored value equals the expansion's same-component
// entries exactly, on every component; Apply (all k components in one
// sweep) equals the expanded Apply entry by entry, with no zero of the
// opposite sign; the SpMV equals the expanded SpMV entry by entry and the
// scalar SpMV of each component bit for bit; the same holds after Refresh
// on new values, and a warm Refresh + Apply allocates nothing.
func TestILU0KronMatchesExpanded(t *testing.T) {
	const nx, ny = 8, 6
	signZeros := 0
	for _, k := range []int{1, 2, 3} {
		for _, zeroPivot := range []bool{false, true} {
			what := fmt.Sprintf("k=%d zeroPivot=%v", k, zeroPivot)
			pat := gridPattern{ghosts: true, pinned: true, zeroPivot: zeroPivot}
			m := gridSystem(nil, nx, ny, 1, pat, int64(300+k))
			m.SetComps(k)
			e := expandKron(m, k)
			p := NewPCBJacobiILU0(m)
			full := newPointILU0(e)
			check := func(stage string) {
				t.Helper()
				if p.n != nx*ny || full.n != p.n*k || m.Rows() != e.Rows() || m.FullLen() != e.FullLen() {
					t.Fatalf("%s: %d factored rows, expansion %d", what, p.n, full.n)
				}
				for i := 0; i < p.n; i++ {
					for j := p.indptr[i]; j < p.indptr[i+1]; j++ {
						for d := 0; d < k; d++ {
							row, col := i*k+d, int32(int(p.cols[j])*k+d)
							fj := slices.Index(full.cols[full.indptr[row]:full.indptr[row+1]], col)
							if fj < 0 {
								t.Fatalf("%s %s: entry (%d,%d) not in the expansion", what, stage, row, col)
							}
							if want := full.lu[int(full.indptr[row])+fj]; math.Float64bits(p.lu[j]) != math.Float64bits(want) {
								t.Fatalf("%s %s: factor (%d,%d) component %d = %v, expanded %v", what, stage, i, p.cols[j], d, p.lu[j], want)
							}
						}
					}
				}
				r := make([]float64, full.n) // zero on the pinned rows, like the no-slip RHS
				for i := range r {
					if node := i / k; !gridPinned(node/ny, node%ny) {
						r[i] = math.Sin(0.7 * float64(i+1))
					}
				}
				got, want := poisoned(full.n), poisoned(full.n)
				p.Apply(r, got)
				full.Apply(r, want)
				signZeros += compareApply(t, what+" "+stage+" apply", got, want)

				x := make([]float64, m.FullLen())
				for i := range x {
					x[i] = math.Cos(0.3 * float64(i+1))
				}
				got, want = poisoned(len(x)), poisoned(len(x))
				m.Apply(x, got)
				e.Apply(x, want)
				compareApply(t, what+" "+stage+" SpMV", got[:m.Rows()], want[:m.Rows()])
				xd, yd := make([]float64, m.NColNodes), make([]float64, m.NColNodes)
				for d := 0; d < k; d++ {
					for i := range xd {
						xd[i] = x[i*k+d]
					}
					m.applySpan1(xd, yd, nil, 0, m.NRowNodes)
					for i := 0; i < m.NRowNodes; i++ {
						if math.Float64bits(got[i*k+d]) != math.Float64bits(yd[i]) {
							t.Fatalf("%s %s: SpMV row %d component %d = %v, scalar SpMV %v", what, stage, i, d, got[i*k+d], yd[i])
						}
					}
				}
			}
			check("new")
			if zeroPivot && p.lu[p.diag[0]] != 0 {
				t.Fatalf("%s: pivot 0 = %v, want an exact zero", what, p.lu[p.diag[0]])
			}
			for i := range m.vals {
				m.vals[i] *= 1 + 0.25*math.Sin(float64(i))
			}
			refillKron(e, m)
			p.Refresh()
			full.Refresh()
			check("refresh")
			r, z := make([]float64, full.n), make([]float64, full.n)
			if a := testing.AllocsPerRun(20, func() { p.Refresh(); p.Apply(r, z) }); a != 0 {
				t.Fatalf("%s: warm Refresh + Apply allocate %v times", what, a)
			}
		}
	}
	t.Logf("Apply entries that are zeros of the opposite sign to the expansion's: %d", signZeros)
	if signZeros != 0 {
		t.Errorf("%d Apply entries are zeros of the opposite sign to the expansion's", signZeros)
	}
}
