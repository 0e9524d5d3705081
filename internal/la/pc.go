package la

import "fmt"

// PC is a preconditioner: z = M^{-1} r over the owned segment.
//
// Besides the pointwise/blockwise PCs in this file, internal/mg provides
// PCGMG, a geometric multigrid V-cycle over the octree hierarchy that
// plugs in through this same interface (it lives outside la because it
// depends on the mesh and assembly layers).
type PC interface {
	Apply(r, z []float64)
}

// PCNone is the identity preconditioner.
type PCNone struct{}

// Apply copies r to z.
func (PCNone) Apply(r, z []float64) { copy(z, r) }

// PCJacobi scales by the inverse of the scalar diagonal (PETSc "jacobi",
// used for the VU mass solves in Table II).
type PCJacobi struct {
	m   *BSRMat
	inv []float64
}

// NewPCJacobi extracts the scalar diagonal of m.
func NewPCJacobi(m *BSRMat) *PCJacobi {
	if !m.Finalized() {
		m.Finalize()
	}
	p := &PCJacobi{m: m, inv: make([]float64, m.Rows())}
	p.Refresh()
	return p
}

// Refresh re-extracts the inverse diagonal from the matrix values in
// place, allocation-free.
func (p *PCJacobi) Refresh() {
	m := p.m
	bs := m.Bs
	bs2 := bs * bs
	for rn := 0; rn < m.NRowNodes; rn++ {
		for d := 0; d < bs; d++ {
			p.inv[rn*bs+d] = 1
		}
		for j := m.sp.Indptr[rn]; j < m.sp.Indptr[rn+1]; j++ {
			if int(m.sp.Cols[j]) != rn {
				continue
			}
			blk := m.vals[int(j)*bs2 : int(j+1)*bs2]
			for d := 0; d < bs; d++ {
				if v := blk[d*bs+d]; v != 0 {
					p.inv[rn*bs+d] = 1 / v
				}
			}
		}
	}
}

// Apply implements PC.
func (p *PCJacobi) Apply(r, z []float64) {
	for i, v := range p.inv {
		z[i] = v * r[i]
	}
}

// PCBJacobiILU0 is block-Jacobi across ranks with an ILU(0)
// factorization of the local owned diagonal block as the subdomain solver
// — the PETSc default "bjacobi" configuration used for the CH, NS and PP
// solves in Table II. The factorization index (diagonal slots and the
// per-entry update positions of the elimination) is built once from the
// frozen pattern; Refresh re-extracts the values and refactors in place
// with no allocation and no hashing on the warm path.
//
// The factored CSR (indptr, cols, lu) is owned x owned only — LocalCSR
// drops ghost columns — with strictly ascending columns and a stored
// diagonal in every row, so diag[i] splits row i into its L part
// [indptr[i], diag[i]) and its U part (diag[i], indptr[i+1]). factor and
// Apply sweep those ranges without testing a column; buildIndex asserts
// the property once.
//
// On a matrix that applies as A ⊗ I_k (BSRMat.SetComps, the NS momentum
// operator with k = dim) only the stored scalar A is factored: factored
// row i stands for the k interleaved scalar rows i·k … i·k+k−1, and each
// Apply sweep updates all k of them in one pass over row i (PETSc's
// MATMAIJ shape). The result and every Apply are bitwise those of the ILU(0)
// of the explicit expansion A ⊗ I_k — up to the sign of exact zeros — as
// each cross-component entry of the expansion is a structural zero: it
// adds ±0 to a running sum in the sweeps and x − 0·y = x in the
// elimination, so the same-component entries are computed from the same
// operands in the same order. It stores and sweeps a k²-th of the
// entries, and its update index shrinks by more.
type PCBJacobiILU0 struct {
	m      *BSRMat
	k      int // interleaved components per factored row
	n      int // factored rows
	indptr []int32
	cols   []int32
	lu     []float64
	diag   []int32 // index of the diagonal entry in each row
	// updOff[j]:updOff[j+1] indexes the precomputed ILU(0) row updates
	// triggered by lower-triangular entry j: lu[updDst] -= lik*lu[updSrc].
	updOff []int32
	updSrc []int32
	updDst []int32
}

// NewPCBJacobiILU0 factors the local owned submatrix of m: every entry of
// every block, swept on m's interleaved components.
func NewPCBJacobiILU0(m *BSRMat) *PCBJacobiILU0 {
	indptr, cols, vals, n := m.LocalCSR()
	p := &PCBJacobiILU0{m: m, k: m.k, n: n, indptr: indptr, cols: cols, lu: vals}
	p.buildIndex()
	p.factor()
	return p
}

// Refresh re-extracts the owned submatrix values and refactors on the
// frozen pattern, allocation-free.
func (p *PCBJacobiILU0) Refresh() {
	p.m.localCSRValuesInto(p.indptr, p.lu)
	p.factor()
}

// buildIndex records each row's diagonal slot, asserting the structure the
// split sweeps rely on (columns owned, < n, and strictly ascending, with
// the diagonal stored), and precomputes, for every lower-triangular entry,
// the (source, destination) pairs its elimination row update hits — the
// ILU(0) pattern intersection, resolved once so factor itself is a pure
// array sweep. pos is the symbolic-ILU row marker: while row r is
// processed, pos[c] is the slot of column c in row r, and -1 for a column
// row r does not store. The pattern is swept twice: the first pass counts
// the pairs into updOff, the second fills updSrc/updDst, allocated at
// exactly that size in between (grown by append they cost more than the
// intersections themselves).
func (p *PCBJacobiILU0) buildIndex() {
	n := p.n
	p.diag = make([]int32, n)
	for r := 0; r < n; r++ {
		p.diag[r] = -1
		prev := int32(-1)
		for j := p.indptr[r]; j < p.indptr[r+1]; j++ {
			c := p.cols[j]
			if c <= prev || int(c) >= n {
				panic(fmt.Sprintf("la: ILU(0) row %d: column %d after %d is unsorted or not owned (n=%d)", r, c, prev, n))
			}
			if int(c) == r {
				p.diag[r] = j
			}
			prev = c
		}
		if p.diag[r] < 0 {
			panic(fmt.Sprintf("la: missing diagonal in row %d", r))
		}
	}
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	p.updOff = make([]int32, len(p.cols)+1)
	for _, fill := range []bool{false, true} {
		for r := 0; r < n; r++ {
			row := p.cols[p.indptr[r]:p.indptr[r+1]]
			for j, c := range row {
				pos[c] = p.indptr[r] + int32(j)
			}
			for j := p.indptr[r]; j < p.indptr[r+1]; j++ {
				u := p.updOff[j]
				if k := int(p.cols[j]); k < r {
					for jj := p.diag[k] + 1; jj < p.indptr[k+1]; jj++ {
						if dst := pos[p.cols[jj]]; dst >= 0 {
							if fill {
								p.updSrc[u], p.updDst[u] = jj, dst
							}
							u++
						}
					}
				}
				p.updOff[j+1] = u
			}
			for _, c := range row {
				pos[c] = -1
			}
		}
		if !fill {
			total := p.updOff[len(p.cols)]
			p.updSrc, p.updDst = make([]int32, total), make([]int32, total)
		}
	}
}

func (p *PCBJacobiILU0) factor() {
	lu, diag, cols := p.lu, p.diag, p.cols
	updOff, updSrc, updDst := p.updOff, p.updSrc, p.updDst
	for r := 0; r < p.n; r++ {
		for j := p.indptr[r]; j < diag[r]; j++ {
			dk := lu[diag[cols[j]]]
			if dk == 0 {
				continue
			}
			lik := lu[j] / dk
			lu[j] = lik
			// Row update restricted to the existing pattern (ILU(0)),
			// through the precomputed position pairs.
			src, dst := updSrc[updOff[j]:updOff[j+1]], updDst[updOff[j]:updOff[j+1]]
			for u, s := range src {
				lu[dst[u]] -= lik * lu[s]
			}
		}
	}
}

// Apply performs the forward/backward ILU(0) triangular solves on the
// local block, on all k components of each row in one sweep. Implements
// PC.
func (p *PCBJacobiILU0) Apply(r, z []float64) {
	switch p.k {
	case 2:
		p.apply2(r, z)
	case 3:
		p.apply3(r, z)
	default:
		p.apply1(r, z)
	}
}

// apply2 and apply3 run apply1's sweeps with one running sum per
// component: each component subtracts the same products in the same order
// as apply1 on that component alone, so the bits are the same.
func (p *PCBJacobiILU0) apply1(r, z []float64) {
	n := p.n
	indptr, diag, cols, lu := p.indptr, p.diag, p.cols, p.lu
	r, z = r[:n], z[:n]
	// Forward: L y = r (unit diagonal L).
	for i := range r {
		s := r[i]
		for j := indptr[i]; j < diag[i]; j++ {
			s -= lu[j] * z[cols[j]]
		}
		z[i] = s
	}
	// Backward: U z = y.
	for i := n - 1; i >= 0; i-- {
		d := diag[i]
		s := z[i]
		for j := d + 1; j < indptr[i+1]; j++ {
			s -= lu[j] * z[cols[j]]
		}
		piv := lu[d]
		if piv == 0 {
			piv = 1
		}
		z[i] = s / piv
	}
}

func (p *PCBJacobiILU0) apply2(r, z []float64) {
	n := p.n
	indptr, diag, cols, lu := p.indptr, p.diag, p.cols, p.lu
	r, z = r[:2*n], z[:2*n]
	for i := 0; i < n; i++ {
		s0, s1 := r[2*i], r[2*i+1]
		for j := indptr[i]; j < diag[i]; j++ {
			v, zc := lu[j], z[2*int(cols[j]):][:2]
			s0 -= v * zc[0]
			s1 -= v * zc[1]
		}
		z[2*i], z[2*i+1] = s0, s1
	}
	for i := n - 1; i >= 0; i-- {
		d := diag[i]
		s0, s1 := z[2*i], z[2*i+1]
		for j := d + 1; j < indptr[i+1]; j++ {
			v, zc := lu[j], z[2*int(cols[j]):][:2]
			s0 -= v * zc[0]
			s1 -= v * zc[1]
		}
		piv := lu[d]
		if piv == 0 {
			piv = 1
		}
		z[2*i], z[2*i+1] = s0/piv, s1/piv
	}
}

func (p *PCBJacobiILU0) apply3(r, z []float64) {
	n := p.n
	indptr, diag, cols, lu := p.indptr, p.diag, p.cols, p.lu
	r, z = r[:3*n], z[:3*n]
	for i := 0; i < n; i++ {
		s0, s1, s2 := r[3*i], r[3*i+1], r[3*i+2]
		for j := indptr[i]; j < diag[i]; j++ {
			v, zc := lu[j], z[3*int(cols[j]):][:3]
			s0 -= v * zc[0]
			s1 -= v * zc[1]
			s2 -= v * zc[2]
		}
		z[3*i], z[3*i+1], z[3*i+2] = s0, s1, s2
	}
	for i := n - 1; i >= 0; i-- {
		d := diag[i]
		s0, s1, s2 := z[3*i], z[3*i+1], z[3*i+2]
		for j := d + 1; j < indptr[i+1]; j++ {
			v, zc := lu[j], z[3*int(cols[j]):][:3]
			s0 -= v * zc[0]
			s1 -= v * zc[1]
			s2 -= v * zc[2]
		}
		piv := lu[d]
		if piv == 0 {
			piv = 1
		}
		z[3*i], z[3*i+1], z[3*i+2] = s0/piv, s1/piv, s2/piv
	}
}
