package la

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// rankOneDiag sets node 0's diagonal block to all 3s: for bs >= 2 its
// elimination leaves exact zero pivots in every scalar column after the
// first, which the later rows' eliminations and both sweeps must skip.
func rankOneDiag(m *BSRMat) {
	bs2 := m.Bs * m.Bs
	blk := m.vals[m.sp.FindSlot(0, 0)*bs2:][:bs2]
	for i := range blk {
		blk[i] = 3
	}
}

// TestILU0BlocksMatchPointExpansion pins the node-block ILU(0) to the
// point ILU(0) of the scalar expansion, bit for bit: every factored entry
// of every owned block equals the oracle's entry at the same scalar row
// and column, and Apply equals the oracle's Apply on every entry, for
// every (bs, k) shape, on patterns with ghost columns, pinned rows, a zero
// pivot in the first scalar column and zero pivots left by the
// elimination; the same holds after Refresh on new values, and a warm
// Refresh + Apply allocates nothing.
func TestILU0BlocksMatchPointExpansion(t *testing.T) {
	const nx, ny = 8, 6
	pats := []struct {
		pat       gridPattern
		rankOne   bool
		zeroFirst bool // a zero pivot in the first scalar column
	}{
		{gridPattern{}, false, false},
		{gridPattern{ghosts: true}, false, false},
		{gridPattern{ghosts: true, pinned: true}, false, false},
		{gridPattern{ghosts: true, zeroPivot: true}, false, true},
		{gridPattern{ghosts: true, pinned: true}, true, false},
	}
	// Node blocks of every size (bs = 2 is the CH system) and a scalar
	// operator applied to k interleaved components (NS).
	for _, sh := range []struct{ bs, k int }{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {1, 2}, {1, 3}} {
		bs, k := sh.bs, sh.k
		for pi, pc := range pats {
			what := fmt.Sprintf("bs=%d k=%d %+v rankOne=%v", bs, k, pc.pat, pc.rankOne)
			m := gridSystem(nil, nx, ny, bs, pc.pat, int64(400+10*bs+k+100*pi))
			m.SetComps(k)
			if pc.rankOne {
				rankOneDiag(m)
			}
			p, q := NewPCBJacobiILU0(m), newPointILU0(m)
			check := func(stage string) {
				t.Helper()
				if p.n != nx*ny || q.n != p.n*bs || len(p.lu) != len(q.lu) {
					t.Fatalf("%s: %d block rows, %d values; oracle %d rows, %d values", what, p.n, len(p.lu), q.n, len(q.lu))
				}
				bs2 := bs * bs
				for i := 0; i < p.n; i++ {
					for j := p.indptr[i]; j < p.indptr[i+1]; j++ {
						t0 := int(j-p.indptr[i]) * bs
						for a := 0; a < bs; a++ {
							for b := 0; b < bs; b++ {
								row, at := i*bs+a, int(q.indptr[i*bs+a])+t0+b
								if q.cols[at] != p.cols[j]*int32(bs)+int32(b) {
									t.Fatalf("%s: block (%d,%d) entry %d,%d is not at oracle column %d", what, i, p.cols[j], a, b, q.cols[at])
								}
								got, want := p.lu[int(j)*bs2+a*bs+b], q.lu[at]
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s %s: factor row %d column %d = %v, point ILU(0) %v", what, stage, row, q.cols[at], got, want)
								}
							}
						}
					}
				}
				r := make([]float64, m.Rows())
				for i := range r {
					r[i] = math.Sin(0.37 * float64(i+1))
				}
				got, want := poisoned(len(r)), poisoned(len(r))
				p.Apply(r, got)
				q.Apply(r, want)
				mustEqualBits(t, what+" "+stage+" apply", got, want)
			}
			check("new")
			if piv := p.lu[int(p.diag[0])*bs*bs]; pc.zeroFirst && piv != 0 {
				t.Fatalf("%s: pivot 0 = %v, want an exact zero", what, piv)
			}
			if pc.rankOne && bs > 1 && p.lu[int(p.diag[0])*bs*bs+bs+1] != 0 {
				t.Fatalf("%s: pivot 1 = %v, want an exact zero", what, p.lu[int(p.diag[0])*bs*bs+bs+1])
			}
			for i := range m.vals {
				m.vals[i] *= 1 + 0.25*math.Sin(float64(i))
			}
			p.Refresh()
			q.Refresh()
			check("refresh")
			r, z := make([]float64, m.Rows()), make([]float64, m.Rows())
			if a := testing.AllocsPerRun(20, func() { p.Refresh(); p.Apply(r, z) }); a != 0 {
				t.Fatalf("%s: warm Refresh + Apply allocate %v times", what, a)
			}
		}
	}
}

// TestILU0IndexSizeIsNodePattern pins the size of the node-block update
// index: an operator of any block size stores exactly the index of the
// scalar operator on the same node pattern — one pair per (lower block,
// upper block) node pair — while the point expansion of a bs = 2 operator
// stores more than 8 pairs for each of them.
func TestILU0IndexSizeIsNodePattern(t *testing.T) {
	const nx, ny = 8, 6
	for _, pat := range []gridPattern{{}, {ghosts: true}} {
		scalar := NewPCBJacobiILU0(gridSystem(nil, nx, ny, 1, pat, 1))
		for _, bs := range []int{2, 3, 4} {
			m := gridSystem(nil, nx, ny, bs, pat, int64(bs))
			p := NewPCBJacobiILU0(m)
			if !slices.Equal(p.updOff, scalar.updOff) || !slices.Equal(p.updSrc, scalar.updSrc) || !slices.Equal(p.updDst, scalar.updDst) {
				t.Fatalf("bs=%d %+v: %d update pairs, the scalar node pattern has %d", bs, pat, len(p.updSrc), len(scalar.updSrc))
			}
			if bs == 2 {
				point := newPointILU0(m)
				if len(point.updSrc) <= 8*len(p.updSrc) {
					t.Fatalf("%+v: the point expansion has %d update pairs, the node blocks %d", pat, len(point.updSrc), len(p.updSrc))
				}
				t.Logf("%+v bs=2: %d node-block update pairs, %d in the point expansion", pat, len(p.updSrc), len(point.updSrc))
			}
		}
	}
}

// TestILU0IndexSharedPerSparsity pins the symbolic/numeric split: every
// factor on one Sparsity — two operators with different values at each
// (bs, k) shape, and every shape on the same pattern — holds the one
// index the Sparsity derived, and its factor and Apply are bitwise those
// of a factor of the same values on a private copy of the pattern (so with
// an index of its own), fresh and after Refresh on new values. A factor's
// Refresh leaves the other factors on the shared index as they were.
func TestILU0IndexSharedPerSparsity(t *testing.T) {
	const nx, ny = 8, 6
	pat := gridPattern{ghosts: true, pinned: true}
	sp := gridSystem(nil, nx, ny, 1, pat, 1).sp
	// on returns gridSystem's values at seed on pattern p.
	on := func(p *Sparsity, bs, k int, seed int64) *BSRMat {
		g := gridSystem(nil, nx, ny, bs, pat, seed)
		if !slices.Equal(g.sp.Indptr, sp.Indptr) || !slices.Equal(g.sp.Cols, sp.Cols) {
			t.Fatalf("bs=%d: gridSystem pattern differs from the shared one", bs)
		}
		m := NewBAIJFromSparsity(nil, bs, g.NRowNodes, g.NColNodes, p)
		copy(m.vals, g.vals)
		m.SetComps(k)
		return m
	}
	private := func() *Sparsity {
		return &Sparsity{NRows: sp.NRows, Indptr: slices.Clone(sp.Indptr), Cols: slices.Clone(sp.Cols)}
	}
	same := func(what string, p, q *PCBJacobiILU0, m *BSRMat, seed int64) {
		t.Helper()
		if d := bitsDiff(p.lu, q.lu); d != "" {
			t.Fatalf("%s: factor differs from the private-index factor: %s", what, d)
		}
		r := make([]float64, m.Rows())
		for i := range r {
			r[i] = math.Sin(float64(seed) + 0.37*float64(i))
		}
		z, w := make([]float64, len(r)), make([]float64, len(r))
		p.Apply(r, z)
		q.Apply(r, w)
		if d := bitsDiff(z, w); d != "" {
			t.Fatalf("%s: Apply differs from the private-index factor: %s", what, d)
		}
	}
	var shared *iluIndex
	for _, sh := range []struct{ bs, k int }{{1, 1}, {2, 1}, {3, 1}, {1, 2}, {1, 3}} {
		bs, k := sh.bs, sh.k
		what := fmt.Sprintf("bs=%d k=%d", bs, k)
		seed := int64(500 + 10*bs + k)
		a, b := on(sp, bs, k, seed), on(sp, bs, k, seed+1)
		a2 := on(private(), bs, k, seed)
		pa, pb := NewPCBJacobiILU0(a), NewPCBJacobiILU0(b)
		qa, qb := NewPCBJacobiILU0(a2), NewPCBJacobiILU0(on(private(), bs, k, seed+1))
		if shared == nil {
			shared = pa.iluIndex
		}
		if pa.iluIndex != shared || pb.iluIndex != shared || qa.iluIndex == shared || qa.iluIndex == qb.iluIndex {
			t.Fatalf("%s: the factors on one Sparsity do not share its one index", what)
		}
		same(what+" a", pa, qa, a, seed)
		same(what+" b", pb, qb, b, seed)
		// New values into a and into its private twin, then Refresh.
		fresh := gridSystem(nil, nx, ny, bs, pat, seed+2)
		copy(a.vals, fresh.vals)
		copy(a2.vals, fresh.vals)
		pa.Refresh()
		qa.Refresh()
		same(what+" a after Refresh", pa, qa, a, seed+2)
		same(what+" b after a's Refresh", pb, qb, b, seed+3)
	}
}
