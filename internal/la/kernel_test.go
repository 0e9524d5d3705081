package la

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"proteus/internal/par"
)

// The reference kernels below are the loops the block-size-specialised
// SpMV and the split-sweep ILU(0) replaced, kept verbatim as oracles: the
// shipped kernels must reproduce them bit for bit (same operand order per
// row, pivots divided), which is what keeps every bitwise suite, iteration
// count and reference.json of the repo independent of the kernel in use.

// refApplySpan is the run-time-bs SpMV loop, run once per interleaved
// component of a SetComps matrix.
func refApplySpan(m *BSRMat, x, y []float64, rows []int32, lo, hi int) {
	bs, k := m.Bs, m.k
	bs2 := bs * bs
	for i := lo; i < hi; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		for d := 0; d < k; d++ {
			var acc [maxBs]float64
			a := acc[:bs]
			for j := m.sp.Indptr[r]; j < m.sp.Indptr[r+1]; j++ {
				c := int(m.sp.Cols[j]) * bs
				blk := m.vals[int(j)*bs2 : int(j+1)*bs2]
				for bi := 0; bi < bs; bi++ {
					s := a[bi]
					row := blk[bi*bs : (bi+1)*bs]
					for bj := 0; bj < bs; bj++ {
						s += row[bj] * x[(c+bj)*k+d]
					}
					a[bi] = s
				}
			}
			for bi := 0; bi < bs; bi++ {
				y[(r*bs+bi)*k+d] = a[bi]
			}
		}
	}
}

// refILUFactor is the ILU(0) elimination testing c >= r on every entry.
func refILUFactor(p *PCBJacobiILU0, lu []float64) {
	for r := 0; r < p.n; r++ {
		for j := p.indptr[r]; j < p.indptr[r+1]; j++ {
			k := int(p.cols[j])
			if k >= r {
				break
			}
			dk := lu[p.diag[k]]
			if dk == 0 {
				continue
			}
			lik := lu[j] / dk
			lu[j] = lik
			for u := p.updOff[j]; u < p.updOff[j+1]; u++ {
				lu[p.updDst[u]] -= lik * lu[p.updSrc[u]]
			}
		}
	}
}

// refILUApply is the triangular solve pair testing c >= i / c < n on
// every entry.
func refILUApply(p *PCBJacobiILU0, lu, r, z []float64) {
	n := p.n
	for i := 0; i < n; i++ {
		s := r[i]
		for j := p.indptr[i]; j < p.indptr[i+1]; j++ {
			c := int(p.cols[j])
			if c >= i {
				break
			}
			s -= lu[j] * z[c]
		}
		z[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for j := p.diag[i] + 1; j < p.indptr[i+1]; j++ {
			c := int(p.cols[j])
			if c < n {
				s -= lu[j] * z[c]
			}
		}
		d := lu[p.diag[i]]
		if d == 0 {
			d = 1
		}
		z[i] = s / d
	}
}

// refILUBuildIndex is the update-index construction through a transient
// (row, column) -> slot hash map, which the dense row marker replaced. It
// expects p.diag filled and returns the three index arrays.
func refILUBuildIndex(p *PCBJacobiILU0) (updOff, updSrc, updDst []int32) {
	n := p.n
	colPos := make(map[int64]int32, len(p.cols))
	for r := 0; r < n; r++ {
		for j := p.indptr[r]; j < p.indptr[r+1]; j++ {
			colPos[int64(r)<<32|int64(p.cols[j])] = j
		}
	}
	updOff = make([]int32, len(p.cols)+1)
	for r := 0; r < n; r++ {
		for j := p.indptr[r]; j < p.indptr[r+1]; j++ {
			updOff[j+1] = updOff[j]
			k := int(p.cols[j])
			if k >= r {
				continue
			}
			for jj := p.diag[k] + 1; jj < p.indptr[k+1]; jj++ {
				if pos, ok := colPos[int64(r)<<32|int64(p.cols[jj])]; ok {
					updSrc = append(updSrc, jj)
					updDst = append(updDst, pos)
					updOff[j+1]++
				}
			}
		}
	}
	return updOff, updSrc, updDst
}

// ringScatter is a real split-phase exchange over par for the kernel
// tests: every rank owns `owned` nodes and borrows the first `ghost` owned
// nodes of the next rank (itself on one rank) as its ghost columns.
type ringScatter struct {
	c            *par.Comm
	owned, ghost int
}

const ringTag = 77

func (s *ringScatter) GhostRead(v []float64, ndof int) {
	s.GhostReadBegin(v, ndof)
	s.GhostReadEnd(v, ndof)
}

func (s *ringScatter) GhostReadBegin(v []float64, ndof int) {
	prev := (s.c.Rank() + s.c.Size() - 1) % s.c.Size()
	par.SendSlice(s.c, prev, ringTag, append([]float64(nil), v[:s.ghost*ndof]...))
}

func (s *ringScatter) GhostReadEnd(v []float64, ndof int) {
	got, _ := par.RecvSlice[float64](s.c, (s.c.Rank()+1)%s.c.Size(), ringTag)
	copy(v[s.owned*ndof:], got)
}

func (s *ringScatter) Dot(a, b []float64, ndof int) float64 { panic("unused") }
func (s *ringScatter) GlobalSum(v float64) float64          { panic("unused") }

// gridPattern selects the structural hazards of a gridSystem.
type gridPattern struct {
	ghosts    bool // last grid column couples to ny ghost nodes
	emptyRows bool // every 11th block row stores nothing (SpMV only: ILU needs a diagonal)
	zeroPivot bool // scalar entry (0,0) is exactly zero
	pinned    bool // gridPinned nodes are no-slip rows, identity on every component
}

// gridPinned reports whether a gridSystem with pinned rows pins node
// (ix, iy).
func gridPinned(ix, iy int) bool { return (ix+iy)%7 == 3 }

// gridSystem assembles a nine-point-stencil block matrix on an nx x ny
// node grid with random, diagonally dominant bs x bs blocks — the shape of
// the 2D CHNS operators.
func gridSystem(sc Scatter, nx, ny, bs int, pat gridPattern, seed int64) *BSRMat {
	rng := rand.New(rand.NewSource(seed))
	owned, local := nx*ny, nx*ny
	if pat.ghosts {
		local += ny
	}
	m := NewBAIJ(sc, bs, owned, local)
	blk := make([]float64, bs*bs)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			rn := ix*ny + iy
			if pat.emptyRows && rn%11 == 5 {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				for dy := -1; dy <= 1; dy++ {
					cx, cy := ix+dx, iy+dy
					if cx < 0 || cy < 0 || cy >= ny || cx > nx || (cx == nx && !pat.ghosts) {
						continue
					}
					cn := cx*ny + cy // cx == nx: ghost node owned+cy
					for i := range blk {
						blk[i] = rng.NormFloat64()
					}
					if cn == rn {
						for d := 0; d < bs; d++ {
							blk[d*bs+d] += 12 * float64(bs)
						}
					}
					m.AddBlock(rn, cn, blk)
				}
			}
		}
	}
	m.Finalize()
	if pat.zeroPivot {
		blk := m.vals[m.sp.FindSlot(0, 0)*bs*bs:][:bs*bs]
		blk[0] = 0
	}
	for rn := 0; pat.pinned && rn < owned; rn++ {
		if gridPinned(rn/ny, rn%ny) {
			for d := 0; d < bs; d++ {
				m.ZeroRow(rn*bs+d, 1)
			}
		}
	}
	return m
}

// bitsDiff describes the first entry where got and want differ bitwise
// ("" when they agree).
func bitsDiff(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("entry %d = %x (%v), reference %x (%v)", i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
	return ""
}

func mustEqualBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if d := bitsDiff(got, want); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// poisoned returns a length-n vector of NaNs with a recognisable payload,
// so rows a kernel must not touch are compared too.
func poisoned(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(0x7ff8dead00000000 | uint64(i))
	}
	return v
}

// TestApplySpanMatchesReferenceBitwise pins every SpMV kernel (the
// unrolled bs = 1, 2 ones, the bs >= 3 fallback and the k = 2, 3
// interleaved ones of a scalar operator) to the reference loop over full
// ranges, sub-ranges, interior and boundary row lists and
// the empty list, on patterns with ghost columns and empty rows, and the
// whole overlapped Apply on 1 and 2 ranks.
func TestApplySpanMatchesReferenceBitwise(t *testing.T) {
	const nx, ny = 9, 7
	for _, sh := range []struct{ bs, k int }{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {8, 1}, {1, 2}, {1, 3}} {
		bs, k := sh.bs, sh.k
		for _, pat := range []gridPattern{{}, {ghosts: true}, {ghosts: true, emptyRows: true}} {
			m := gridSystem(nil, nx, ny, bs, pat, int64(bs))
			m.SetComps(k)
			x := make([]float64, m.FullLen())
			for i := range x {
				x[i] = math.Sin(1.7 * float64(i+1))
			}
			interior, boundary := m.sp.RowSplit()
			n := m.NRowNodes
			for _, c := range []struct {
				name   string
				rows   []int32
				lo, hi int
			}{
				{"all", nil, 0, n}, {"shard", nil, 3, n - 5}, {"interior", interior, 0, len(interior)},
				{"boundary", boundary, 0, len(boundary)}, {"boundary-shard", boundary, len(boundary) / 2, len(boundary)},
				{"empty", []int32{}, 0, 0},
			} {
				got, want := poisoned(len(x)), poisoned(len(x))
				m.applySpan(x, got, c.rows, c.lo, c.hi)
				refApplySpan(m, x, want, c.rows, c.lo, c.hi)
				mustEqualBits(t, fmt.Sprintf("bs=%d k=%d %+v rows=%s", bs, k, pat, c.name), got, want)
			}
		}
		for _, p := range []int{1, 2} {
			par.Run(p, func(c *par.Comm) {
				sc := &ringScatter{c: c, owned: nx * ny, ghost: ny}
				m := gridSystem(sc, nx, ny, bs, gridPattern{ghosts: true}, int64(10*bs+c.Rank()))
				m.SetComps(k)
				x := make([]float64, m.FullLen())
				for i := range x[:m.Rows()] {
					x[i] = math.Cos(float64(i+1) * float64(c.Rank()+2))
				}
				got, want := poisoned(len(x)), poisoned(len(x))
				m.Apply(x, got) // fills x's ghost segment
				refApplySpan(m, x, want, nil, 0, m.NRowNodes)
				if d := bitsDiff(got, want); d != "" {
					panic(fmt.Sprintf("Apply bs=%d k=%d ranks=%d rank=%d: %s", bs, k, p, c.Rank(), d))
				}
			})
		}
	}
}

// TestILU0MatchesReferenceBitwise pins the scalar kernels (factor1 through
// the cold and Refresh entry points, apply1) to the reference sweeps, on
// the point-expansion oracle of patterns with ghost columns (dropped by
// LocalCSR) and a zero pivot.
func TestILU0MatchesReferenceBitwise(t *testing.T) {
	const nx, ny = 8, 6
	for _, bs := range []int{1, 2, 3, 4} {
		for _, pat := range []gridPattern{{}, {ghosts: true}, {ghosts: true, zeroPivot: true}} {
			what := fmt.Sprintf("bs=%d %+v", bs, pat)
			m := gridSystem(nil, nx, ny, bs, pat, int64(100+bs))
			p := newPointILU0(m)
			check := func(stage string) {
				t.Helper()
				_, _, lu, _ := m.LocalCSR()
				refILUFactor(p, lu)
				mustEqualBits(t, what+" "+stage+" factor", p.lu, lu)
				r := make([]float64, p.n)
				for i := range r {
					r[i] = math.Sin(0.3 * float64(i+1))
				}
				got, want := poisoned(p.n), poisoned(p.n)
				p.Apply(r, got)
				refILUApply(p, lu, r, want)
				mustEqualBits(t, what+" "+stage+" apply", got, want)
			}
			check("new")
			if pat.zeroPivot && p.lu[p.diag[0]] != 0 {
				t.Fatalf("%s: pivot 0 = %v, want an exact zero", what, p.lu[p.diag[0]])
			}
			for i := range m.vals {
				m.vals[i] *= 1 + 0.25*math.Sin(float64(i))
			}
			p.Refresh()
			check("refresh")
		}
	}
}

// TestILU0IndexMatchesReference pins the row-marker buildIndex to the
// hash-map construction — same updOff/updSrc/updDst, entry for entry — on
// the scalar index of the point-expansion oracle and on the node-block
// index the shipped ILU(0) builds.
func TestILU0IndexMatchesReference(t *testing.T) {
	const nx, ny = 8, 6
	for _, bs := range []int{1, 2, 3} {
		for _, pat := range []gridPattern{{}, {ghosts: true}} {
			m := gridSystem(nil, nx, ny, bs, pat, int64(200+bs))
			for name, p := range map[string]*PCBJacobiILU0{"oracle": newPointILU0(m), "blocks": NewPCBJacobiILU0(m)} {
				off, src, dst := refILUBuildIndex(p)
				for _, c := range []struct {
					name      string
					got, want []int32
				}{{"updOff", p.updOff, off}, {"updSrc", p.updSrc, src}, {"updDst", p.updDst, dst}} {
					if !slices.Equal(c.got, c.want) {
						t.Fatalf("bs=%d %+v %s: %s differs from the hash-map index", bs, pat, name, c.name)
					}
				}
				if len(src) == 0 {
					t.Fatalf("bs=%d %+v %s: empty update index, nothing compared", bs, pat, name)
				}
			}
		}
	}
}

// TestILU0RejectsUnsortedOrGhostColumns pins the structural assertion the
// split sweeps rely on: the factored CSR is owned x owned with strictly
// ascending columns, checked once when the index is built.
func TestILU0RejectsUnsortedOrGhostColumns(t *testing.T) {
	for name, cols := range map[string][]int32{"unsorted": {1, 0, 0, 1}, "ghost": {0, 2, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s columns must be rejected", name)
				}
			}()
			p := &PCBJacobiILU0{n: 2, indptr: []int32{0, 2, 4}, cols: cols}
			p.buildIndex()
		}()
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the Krylov inner-loop kernels, on the nine-point
// block pattern of the 2D stage operators (96 x 96 nodes: LLC-resident,
// like the contract benchmark's workloads). ns/nnz counts scalar stored
// entries; GB/s is computed from the array sizes a kernel streams (values,
// one column index per stored block or scalar, input read and output
// written once), not measured.
// ---------------------------------------------------------------------------

const benchNx, benchNy = 96, 96

func reportKernel(b *testing.B, nnz, bytes int) {
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/float64(nnz), "ns/nnz")
	b.ReportMetric(float64(bytes)/ns, "GB/s")
}

func BenchmarkSpMV(b *testing.B) {
	for _, bs := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("bs=%d", bs), func(b *testing.B) {
			m := gridSystem(nil, benchNx, benchNy, bs, gridPattern{}, 1)
			x, y := make([]float64, m.FullLen()), make([]float64, m.FullLen())
			for i := range x {
				x[i] = math.Sin(0.01 * float64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Apply(x, y)
			}
			reportKernel(b, m.NNZBlocks()*bs*bs, m.NNZBlocks()*(bs*bs*8+4)+2*m.Rows()*8)
		})
	}
}

// benchILU0 runs an ILU(0) kernel on the node blocks and, for bs >= 2, on
// the point-expansion oracle (the "point" rows).
func benchILU0(b *testing.B, run func(p *PCBJacobiILU0, r, z []float64)) {
	for _, bs := range []int{1, 2, 3} {
		for _, point := range []bool{false, true} {
			if point && bs == 1 {
				continue
			}
			name := fmt.Sprintf("bs=%d", bs)
			if point {
				name += "/point"
			}
			b.Run(name, func(b *testing.B) {
				m := gridSystem(nil, benchNx, benchNy, bs, gridPattern{}, 1)
				p := NewPCBJacobiILU0(m)
				if point {
					p = newPointILU0(m)
				}
				n := m.Rows()
				r, z := make([]float64, n), make([]float64, n)
				for i := range r {
					r[i] = math.Sin(0.01 * float64(i))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(p, r, z)
				}
				reportKernel(b, len(p.lu), len(p.lu)*8+len(p.cols)*4+2*n*8)
			})
		}
	}
}

func BenchmarkILU0Apply(b *testing.B) {
	benchILU0(b, func(p *PCBJacobiILU0, r, z []float64) { p.Apply(r, z) })
}

// BenchmarkILU0Factor times Refresh: value re-extraction plus the numeric
// factorization on the frozen index, the per-Newton-iteration PC set-up.
func BenchmarkILU0Factor(b *testing.B) {
	benchILU0(b, func(p *PCBJacobiILU0, _, _ []float64) { p.Refresh() })
}
