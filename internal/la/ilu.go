package la

import "fmt"

// PCBJacobiILU0 is block-Jacobi across ranks with an ILU(0)
// factorization of the local owned diagonal block as the subdomain solver
// — the PETSc default "bjacobi" configuration used for the CH, NS and PP
// solves in Table II — stored, factored and swept on the matrix's own
// node blocks (PETSc's BAIJ ILU(0) shape): each owned block keeps its
// bs×bs values and one node column, ghost columns dropped. The symbolic
// factorization (the owned node pattern, its diagonal slots and the
// per-block update pairs of the elimination, iluIndex) depends on the
// frozen Sparsity alone, so it is derived once per Sparsity and shared by
// every factor on it — the CH, NS and PP factors of one mesh hold one
// index, as a PETSc MatILUFactorSymbolic serves every numeric
// factorization of its pattern. Each factor keeps only its own values;
// Refresh copies the owned blocks and refactors in place with no
// allocation and no hashing on the warm path.
//
// The arithmetic is the point ILU(0) of the scalar expansion — every
// scalar entry of every owned block — done in node-block order: each
// scalar entry receives the same operations on the same operands in the
// same order, so the factor and every Apply are bitwise those of the
// scalar ILU(0), a zero pivot skipped per scalar column as there. The
// update index keeps one pair per (lower block, upper block) node pair,
// not one per scalar update, so a bs ≥ 2 operator stores about a bs³-th
// of the pairs (bs = 2 is the CH system; bs ≥ 3 runs a run-time-bs loop
// that only tests use). Being per node pair, it is the same index at
// every block size and component count.
//
// On a matrix that applies as A ⊗ I_k (BSRMat.SetComps, the NS momentum
// operator with k = dim; bs = 1) only the stored scalar A is factored:
// factored row i stands for the k interleaved scalar rows i·k … i·k+k−1,
// and each Apply sweep updates all k of them in one pass over row i
// (PETSc's MATMAIJ shape). The result and every Apply are bitwise those of
// the ILU(0) of the explicit expansion A ⊗ I_k — up to the sign of exact
// zeros — as each cross-component entry of the expansion is a structural
// zero: it adds ±0 to a running sum in the sweeps and x − 0·y = x in the
// elimination, so the same-component entries are computed from the same
// operands in the same order.
type PCBJacobiILU0 struct {
	*iluIndex
	bs int       // rows and columns of each stored block
	k  int       // interleaved components per factored row (bs = 1)
	lu []float64 // bs×bs row-major values of each stored block
	// refill copies the matrix's current owned values into lu.
	refill func(lu []float64)
}

// iluIndex is the symbolic ILU(0) of an owned node pattern, read-only
// once built. The stored blocks are owned × owned only, with strictly
// ascending node columns and a stored diagonal block in every block row,
// so diag[i] splits block row i into its L part [indptr[i], diag[i]) and
// its U part (diag[i], indptr[i+1]); the diagonal block holds both
// triangles. factor and Apply sweep those ranges without testing a
// column; newILUIndex asserts the property once.
type iluIndex struct {
	n      int // block rows
	indptr []int32
	cols   []int32 // node column of each stored block
	diag   []int32 // slot of the diagonal block in each block row
	// updOff[j]:updOff[j+1] indexes the precomputed update pairs of lower
	// block j = (I,K): for each block (K,J), J > K, whose block (I,J) is
	// stored, block updSrc feeds block updDst.
	updOff []int32
	updSrc []int32
	updDst []int32
}

// iluLayout is the layout NewPCBJacobiILU0 factors: (*BSRMat).ownedBlocks.
// la's tests swap in the scalar expansion, the point ILU(0) the node-block
// kernels are pinned to end to end; it builds its own index.
var iluLayout = (*BSRMat).ownedBlocks

// NewPCBJacobiILU0 factors the local owned submatrix of m: every entry of
// every owned block, swept on m's interleaved components.
func NewPCBJacobiILU0(m *BSRMat) *PCBJacobiILU0 {
	bs, ix, refill := iluLayout(m)
	p := &PCBJacobiILU0{
		iluIndex: ix, bs: bs, k: m.k,
		lu: make([]float64, len(ix.cols)*bs*bs), refill: refill,
	}
	p.Refresh()
	return p
}

// ownedBlocks returns the index of m's owned × owned node pattern, shared
// through m's Sparsity, and the function that copies the blocks' current
// values, one contiguous run per block row.
func (m *BSRMat) ownedBlocks() (bs int, ix *iluIndex, refill func(lu []float64)) {
	sp, ix := m.sp, m.sp.iluIndex()
	bs2 := m.Bs * m.Bs
	refill = func(lu []float64) {
		for r := 0; r < ix.n; r++ {
			copy(lu[int(ix.indptr[r])*bs2:int(ix.indptr[r+1])*bs2], m.vals[int(sp.Indptr[r])*bs2:])
		}
	}
	return m.Bs, ix, refill
}

// ownedPattern returns the owned × owned node pattern of s: each block
// row's blocks in owned columns, which sort before its ghost columns.
func (s *Sparsity) ownedPattern() (indptr, cols []int32) {
	n := int32(s.NRows)
	indptr = make([]int32, n+1)
	for r := int32(0); r < n; r++ {
		lo, hi := s.Indptr[r], s.Indptr[r+1]
		j := lo
		for j < hi && s.Cols[j] < n {
			j++
		}
		for _, c := range s.Cols[j:hi] {
			if c < n {
				panic(fmt.Sprintf("la: ILU(0) block row %d: owned column %d after a ghost column", r, c))
			}
		}
		indptr[r+1] = indptr[r] + j - lo
	}
	cols = make([]int32, indptr[n])
	for r := int32(0); r < n; r++ {
		copy(cols[indptr[r]:indptr[r+1]], s.Cols[s.Indptr[r]:])
	}
	return indptr, cols
}

// Refresh copies the owned blocks' current values and refactors on the
// frozen pattern, allocation-free.
func (p *PCBJacobiILU0) Refresh() {
	p.refill(p.lu)
	p.factor()
}

// newILUIndex records each block row's diagonal slot of the pattern
// (indptr, cols), asserting the structure the split sweeps rely on
// (columns owned, < n, and strictly ascending, with the diagonal stored),
// and precomputes, for every lower block, the (source, destination) pairs
// its elimination row update hits — the ILU(0) pattern intersection,
// resolved once so factor itself is a pure array sweep. pos is the
// symbolic-ILU row marker: while row r is processed, pos[c] is the slot
// of column c in row r, and -1 for a column row r does not store. The
// pattern is swept twice: the first pass counts the pairs into updOff,
// the second fills updSrc/updDst, allocated at exactly that size in
// between (grown by append they cost more than the intersections
// themselves).
func newILUIndex(indptr, cols []int32) *iluIndex {
	n := len(indptr) - 1
	p := &iluIndex{n: n, indptr: indptr, cols: cols, diag: make([]int32, n)}
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
	return p
}

// factor eliminates block row by block row, as the point ILU(0) of the
// scalar expansion does row by row: each lower block in ascending column
// order, then the strictly lower triangle of the diagonal block. Each
// scalar row thus sees its lower entries in ascending column order, and
// each row it reads from is final. bs = 1 is factor1.
func (p *PCBJacobiILU0) factor() {
	if p.bs == 1 {
		p.factor1()
		return
	}
	for r := 0; r < p.n; r++ {
		for j := p.indptr[r]; j < p.diag[r]; j++ {
			if p.bs != 2 || !p.eliminate2(j) {
				p.eliminateN(j)
			}
		}
		p.eliminateDiagN(r)
	}
}

// factor1 is the scalar ILU(0): row by row, each lower entry's multiplier
// and its row update restricted to the existing pattern, through the
// precomputed position pairs.
func (p *PCBJacobiILU0) factor1() {
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
			src, dst := updSrc[updOff[j]:updOff[j+1]], updDst[updOff[j]:updOff[j+1]]
			for u, s := range src {
				lu[dst[u]] -= lik * lu[s]
			}
		}
	}
}

// eliminate2 eliminates lower block j = (I,K) of a bs = 2 operator, the
// scalar rows 2I and 2I+1 at once: the multipliers of column 2K for both
// rows, the update inside the block (from entry (2K,2K+1) of the diagonal
// block of K), the multipliers of column 2K+1, then one walk of the pair
// list doing all 8 updates of a destination block, 2K before 2K+1 at each
// entry. It leaves a block whose pivots include a zero to eliminateN,
// which skips that scalar column, and reports whether it did the work.
func (p *PCBJacobiILU0) eliminate2(j int32) bool {
	lu := p.lu
	dk := lu[4*p.diag[p.cols[j]]:][:4]
	if dk[0] == 0 || dk[3] == 0 {
		return false
	}
	l := lu[4*j:][:4]
	l00, l10 := l[0]/dk[0], l[2]/dk[0]
	l01, l11 := (l[1]-l00*dk[1])/dk[3], (l[3]-l10*dk[1])/dk[3]
	l[0], l[1], l[2], l[3] = l00, l01, l10, l11
	lo, hi := p.updOff[j], p.updOff[j+1]
	dst := p.updDst[lo:hi]
	for u, s := range p.updSrc[lo:hi] {
		a, d := lu[4*s:][:4], lu[4*dst[u]:][:4]
		d[0] = d[0] - l00*a[0] - l01*a[2]
		d[1] = d[1] - l00*a[1] - l01*a[3]
		d[2] = d[2] - l10*a[0] - l11*a[2]
		d[3] = d[3] - l10*a[1] - l11*a[3]
	}
	return true
}

// eliminateN eliminates lower block j = (I,K) for any bs: column by
// column of the block, each row's multiplier and the update inside the
// block (from the diagonal block of K), then the pair list with every
// destination entry taking its updates in column order. A zero pivot
// skips its scalar column: no multiplier, no update.
func (p *PCBJacobiILU0) eliminateN(j int32) {
	bs := p.bs
	bs2 := bs * bs
	lu := p.lu
	dk := lu[int(p.diag[p.cols[j]])*bs2:][:bs2]
	l := lu[int(j)*bs2:][:bs2]
	var live [maxBs]bool
	for c := 0; c < bs; c++ {
		piv := dk[c*bs+c]
		if live[c] = piv != 0; !live[c] {
			continue
		}
		for a := 0; a < bs; a++ {
			m := l[a*bs+c] / piv
			l[a*bs+c] = m
			for c2 := c + 1; c2 < bs; c2++ {
				l[a*bs+c2] -= m * dk[c*bs+c2]
			}
		}
	}
	for u := p.updOff[j]; u < p.updOff[j+1]; u++ {
		s := lu[int(p.updSrc[u])*bs2:][:bs2]
		d := lu[int(p.updDst[u])*bs2:][:bs2]
		for a := 0; a < bs; a++ {
			for b := 0; b < bs; b++ {
				v := d[a*bs+b]
				for c := 0; c < bs; c++ {
					if live[c] {
						v -= l[a*bs+c] * s[c*bs+b]
					}
				}
				d[a*bs+b] = v
			}
		}
	}
}

// eliminateDiagN eliminates the strictly lower entries of block row r's
// diagonal block for any bs, pivot column by pivot column: row a's entry
// in column c, then its updates inside the diagonal block and across the
// row's upper blocks, from row c, which earlier columns have finished.
func (p *PCBJacobiILU0) eliminateDiagN(r int) {
	bs := p.bs
	bs2 := bs * bs
	lu := p.lu
	dj, end := int(p.diag[r]), int(p.indptr[r+1])
	d := lu[dj*bs2:][:bs2]
	for c := 0; c < bs-1; c++ {
		piv := d[c*bs+c]
		if piv == 0 {
			continue
		}
		for a := c + 1; a < bs; a++ {
			m := d[a*bs+c] / piv
			d[a*bs+c] = m
			for c2 := c + 1; c2 < bs; c2++ {
				d[a*bs+c2] -= m * d[c*bs+c2]
			}
			for j := dj + 1; j < end; j++ {
				u := lu[j*bs2:][:bs2]
				for b := 0; b < bs; b++ {
					u[a*bs+b] -= m * u[c*bs+b]
				}
			}
		}
	}
}

// Apply performs the forward/backward ILU(0) triangular solves on the
// local block — on all k components of each row in one sweep for bs = 1.
// Implements PC.
func (p *PCBJacobiILU0) Apply(r, z []float64) {
	switch {
	case p.bs == 2:
		p.applyB2(r, z)
	case p.bs > 2:
		p.applyBN(r, z)
	case p.k == 2:
		p.apply2(r, z)
	case p.k == 3:
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

// applyB2 is apply1 on the scalar rows 2I and 2I+1 of each block row. The
// forward sweep carries both rows' sums through one pass over the lower
// blocks, and row 2I+1 subtracts its diagonal-block term (column 2I) last.
// The backward sweep finishes row 2I+1 first, then row 2I, whose first
// term is the diagonal-block one (column 2I+1): each scalar row subtracts
// its terms in ascending column order, as in apply1.
func (p *PCBJacobiILU0) applyB2(r, z []float64) {
	n := p.n
	indptr, diag, cols, lu := p.indptr, p.diag, p.cols, p.lu
	r, z = r[:2*n], z[:2*n]
	for i := 0; i < n; i++ {
		s0, s1 := r[2*i], r[2*i+1]
		for j := indptr[i]; j < diag[i]; j++ {
			c, o := 2*int(cols[j]), 4*int(j)
			v := lu[o : o+4 : o+4]
			z0, z1 := z[c], z[c+1]
			s0 = s0 - v[0]*z0 - v[1]*z1
			s1 = s1 - v[2]*z0 - v[3]*z1
		}
		z[2*i], z[2*i+1] = s0, s1-lu[4*diag[i]+2]*s0
	}
	for i := n - 1; i >= 0; i-- {
		d, hi := diag[i], indptr[i+1]
		dv := lu[4*d : 4*d+4]
		s1 := z[2*i+1]
		for j := d + 1; j < hi; j++ {
			c, o := 2*int(cols[j]), 4*int(j)
			v := lu[o : o+4 : o+4]
			s1 = s1 - v[2]*z[c] - v[3]*z[c+1]
		}
		piv := dv[3]
		if piv == 0 {
			piv = 1
		}
		z1 := s1 / piv
		s0 := z[2*i] - dv[1]*z1
		for j := d + 1; j < hi; j++ {
			c, o := 2*int(cols[j]), 4*int(j)
			v := lu[o : o+4 : o+4]
			s0 = s0 - v[0]*z[c] - v[1]*z[c+1]
		}
		if piv = dv[0]; piv == 0 {
			piv = 1
		}
		z[2*i], z[2*i+1] = s0/piv, z1
	}
}

// applyBN is applyB2 for any bs, one scalar row at a time.
func (p *PCBJacobiILU0) applyBN(r, z []float64) {
	n, bs := p.n, p.bs
	bs2 := bs * bs
	indptr, diag, cols, lu := p.indptr, p.diag, p.cols, p.lu
	r, z = r[:bs*n], z[:bs*n]
	for i := 0; i < n; i++ {
		for a := 0; a < bs; a++ {
			s := r[bs*i+a]
			for j := indptr[i]; j < diag[i]; j++ {
				v, zc := lu[int(j)*bs2+a*bs:][:bs], z[bs*int(cols[j]):][:bs]
				for b, x := range zc {
					s -= v[b] * x
				}
			}
			dv := lu[int(diag[i])*bs2+a*bs:][:bs]
			for c := 0; c < a; c++ {
				s -= dv[c] * z[bs*i+c]
			}
			z[bs*i+a] = s
		}
	}
	for i := n - 1; i >= 0; i-- {
		for a := bs - 1; a >= 0; a-- {
			s := z[bs*i+a]
			dv := lu[int(diag[i])*bs2+a*bs:][:bs]
			for c := a + 1; c < bs; c++ {
				s -= dv[c] * z[bs*i+c]
			}
			for j := diag[i] + 1; j < indptr[i+1]; j++ {
				v, zc := lu[int(j)*bs2+a*bs:][:bs], z[bs*int(cols[j]):][:bs]
				for b, x := range zc {
					s -= v[b] * x
				}
			}
			piv := dv[a]
			if piv == 0 {
				piv = 1
			}
			z[bs*i+a] = s / piv
		}
	}
}
