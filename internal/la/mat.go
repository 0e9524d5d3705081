// Package la is the linear-algebra substrate standing in for PETSc: local
// vectors with owned+ghost layout, assembled sparse matrices in AIJ (CSR)
// and BAIJ (block-CSR) formats, Krylov solvers (CG, BiCGStab and a fused
// IBCGS variant), preconditioners (Jacobi and
// block-Jacobi with ILU(0) local solves) and a Newton driver.
//
// Matrices are distributed by rows: each rank owns the rows of its owned
// mesh nodes; column indices are local (owned followed by ghost), and the
// operator refreshes ghost values before multiplying, exactly like a
// PETSc MatMult with its VecScatter. The BAIJ format stores dense
// bs*bs blocks, the layout the paper converts to in Stage 1 of Table I.
package la

import (
	"fmt"
	"sort"

	"proteus/internal/par"
)

// Scatter abstracts the mesh ghost exchange the matrix needs: refresh
// ghost entries of a vector and reduce global dot products.
type Scatter interface {
	GhostRead(v []float64, ndof int)
	Dot(a, b []float64, ndof int) float64
	GlobalSum(v float64) float64
}

// OverlapScatter is an optional Scatter extension splitting the ghost
// read into a send phase and a receive phase, so interior computation can
// run between them (the communication/computation overlap of a
// non-blocking VecScatterBegin/End pair).
type OverlapScatter interface {
	Scatter
	GhostReadBegin(v []float64, ndof int)
	GhostReadEnd(v []float64, ndof int)
}

// maxBs is the largest supported block size: the run-time-bs SpMV kernel
// accumulates a block row in a [maxBs]float64 and the scalar AddValue path
// stages through a [maxBs*maxBs]float64.
const maxBs = 8

func checkBs(bs int) {
	if bs < 1 || bs > maxBs {
		panic(fmt.Sprintf("la: block size %d out of supported range [1,%d]", bs, maxBs))
	}
}

// Operator is anything that can apply y = A*x on full local vectors
// (owned+ghost layout); only the owned segment of y is defined after the
// call.
type Operator interface {
	Apply(x, y []float64)
	// Rows returns the owned unknown count (scalar entries).
	Rows() int
	// FullLen returns the full local vector length.
	FullLen() int
}

// BSRMat is a block compressed-sparse-row matrix with square blocks of
// size Bs. With Bs == 1 it degenerates to AIJ; constructors name the two
// cases for clarity in the Table I benchmarks.
type BSRMat struct {
	Bs        int
	NRowNodes int // owned block rows
	NColNodes int // local (owned+ghost) block columns
	// scatterDof is the unknowns-per-mesh-node used for ghost exchange:
	// equal to Bs for BAIJ, but the full node dof count for scalar AIJ
	// matrices whose rows are flattened node*ndof entries.
	scatterDof int
	scatter    Scatter
	// ovScatter is scatter's overlap extension when it has one (asserted
	// once at construction), enabling the split-phase Apply.
	ovScatter OverlapScatter
	// k is the number of interleaved components the matrix applies to:
	// 1, or the k of SetComps.
	k int

	// Assembly state (COO map) until Finalize; then CSR arrays.
	build map[[2]int32][]float64

	// sp is the frozen index structure after Finalize. It may be shared
	// with other matrices of the same pattern (see NewBAIJFromSparsity).
	sp   *Sparsity
	vals []float64 // sp.NNZ() * Bs * Bs, block-major row-major blocks

	finalized bool
}

// NewBAIJ returns an empty block matrix with the given block size
// (1 <= bs <= 8; larger blocks would silently overrun the fixed row
// accumulators, so they are rejected here).
func NewBAIJ(scatter Scatter, bs, ownedNodes, localNodes int) *BSRMat {
	checkBs(bs)
	m := &BSRMat{
		Bs: bs, NRowNodes: ownedNodes, NColNodes: localNodes,
		scatterDof: bs, scatter: scatter, k: 1, build: make(map[[2]int32][]float64),
	}
	m.initScatter()
	return m
}

// NewAIJ returns an empty scalar CSR matrix over ndof unknowns per node:
// the node-blocked sparsity is flattened to scalar rows/columns, the
// format the paper starts from ("baseline", MATMPIAIJ).
func NewAIJ(scatter Scatter, ndof, ownedNodes, localNodes int) *BSRMat {
	m := &BSRMat{
		Bs: 1, NRowNodes: ownedNodes * ndof, NColNodes: localNodes * ndof,
		scatterDof: ndof, scatter: scatter, k: 1, build: make(map[[2]int32][]float64),
	}
	m.initScatter()
	return m
}

// NewBAIJFromSparsity returns a finalized block matrix sharing the frozen
// pattern sp, with all values zero. Assembly into it must hit existing
// slots (AddBlockAt or pattern-preserving AddBlock), the warm path of a
// persistent-sparsity time loop.
func NewBAIJFromSparsity(scatter Scatter, bs, ownedNodes, localNodes int, sp *Sparsity) *BSRMat {
	checkBs(bs)
	m := &BSRMat{
		Bs: bs, NRowNodes: ownedNodes, NColNodes: localNodes,
		scatterDof: bs, scatter: scatter, k: 1,
		sp: sp, vals: make([]float64, sp.NNZ()*bs*bs), finalized: true,
	}
	m.initScatter()
	return m
}

// NewAIJFromSparsity is the scalar-CSR analogue of NewBAIJFromSparsity:
// sp indexes the flattened node*ndof rows/columns.
func NewAIJFromSparsity(scatter Scatter, ndof, ownedNodes, localNodes int, sp *Sparsity) *BSRMat {
	m := &BSRMat{
		Bs: 1, NRowNodes: ownedNodes * ndof, NColNodes: localNodes * ndof,
		scatterDof: ndof, scatter: scatter, k: 1,
		sp: sp, vals: make([]float64, sp.NNZ()), finalized: true,
	}
	m.initScatter()
	return m
}

// SetComps makes a scalar matrix (Bs = 1, one row per mesh node) apply as
// A ⊗ I_k to k-interleaved vectors, k ≤ 3: entry i·k+d of a vector is
// component d at node i, and one pass over row i of A updates all k
// components of y (PETSc's MATMAIJ). The stored values stay A's; Rows,
// FullLen, the ghost exchange and the ILU(0) of NewPCBJacobiILU0 follow k.
// SetComps(1) leaves any matrix as it is.
func (m *BSRMat) SetComps(k int) {
	if k == m.k {
		return
	}
	if m.Bs != 1 || m.scatterDof != m.k || k < 1 || k > 3 {
		panic(fmt.Sprintf("la: %d interleaved components on a block size %d matrix with %d dofs per node", k, m.Bs, m.scatterDof))
	}
	m.k, m.scatterDof = k, k
}

// initScatter caches the overlap capability of the scatter.
func (m *BSRMat) initScatter() {
	if ov, ok := m.scatter.(OverlapScatter); ok {
		m.ovScatter = ov
	}
}

// SetPool does nothing: a rank multiplies on its own goroutine.
//
// Deprecated: kept because benchmark/probes.go calls it.
func (m *BSRMat) SetPool(*par.Pool) {}

// Rows implements Operator.
func (m *BSRMat) Rows() int { return m.NRowNodes * m.Bs * m.k }

// Sparsity returns the frozen index structure (nil before Finalize).
func (m *BSRMat) Sparsity() *Sparsity { return m.sp }

// Vals exposes the value array of a finalized matrix for plan-driven
// accumulation; slot j's block occupies vals[j*Bs*Bs:(j+1)*Bs*Bs].
func (m *BSRMat) Vals() []float64 {
	if !m.finalized {
		m.Finalize()
	}
	return m.vals
}

// Finalized reports whether the matrix has frozen CSR structure.
func (m *BSRMat) Finalized() bool { return m.finalized }

// AddBlockAt accumulates a Bs x Bs block at a precomputed slot: the fast
// path of plan-driven assembly, with no map lookup or column search.
func (m *BSRMat) AddBlockAt(slot int, block []float64) {
	base := slot * m.Bs * m.Bs
	dst := m.vals[base : base+m.Bs*m.Bs]
	for i, v := range block {
		dst[i] += v
	}
}

// FullLen implements Operator.
func (m *BSRMat) FullLen() int { return m.NColNodes * m.Bs * m.k }

// Zero resets all stored values (keeping the sparsity if finalized).
func (m *BSRMat) Zero() {
	if m.finalized {
		for i := range m.vals {
			m.vals[i] = 0
		}
		return
	}
	m.build = make(map[[2]int32][]float64)
}

// AddBlock accumulates a Bs x Bs dense block (row-major) at block
// position (rowNode, colNode). Rows beyond the owned range are ignored —
// callers push ghost-row contributions to their owners via the mesh ghost
// write before assembling, mirroring PETSc's off-process assembly cache.
func (m *BSRMat) AddBlock(rowNode, colNode int, block []float64) {
	if rowNode < 0 || rowNode >= m.NRowNodes {
		panic(fmt.Sprintf("la.AddBlock: row node %d out of owned range %d", rowNode, m.NRowNodes))
	}
	if m.finalized {
		m.addFinalized(rowNode, colNode, block)
		return
	}
	key := [2]int32{int32(rowNode), int32(colNode)}
	b := m.build[key]
	if b == nil {
		b = make([]float64, m.Bs*m.Bs)
		m.build[key] = b
	}
	for i := range block {
		b[i] += block[i]
	}
}

// AddValue accumulates a scalar at (row, col) in scalar index space
// (node*Bs + dof).
func (m *BSRMat) AddValue(row, col int, v float64) {
	rn, rd := row/m.Bs, row%m.Bs
	cn, cd := col/m.Bs, col%m.Bs
	if m.finalized {
		var blk [64]float64
		blk[rd*m.Bs+cd] = v
		m.addFinalized(rn, cn, blk[:m.Bs*m.Bs])
		return
	}
	key := [2]int32{int32(rn), int32(cn)}
	b := m.build[key]
	if b == nil {
		b = make([]float64, m.Bs*m.Bs)
		m.build[key] = b
	}
	b[rd*m.Bs+cd] += v
}

func (m *BSRMat) addFinalized(rowNode, colNode int, block []float64) {
	slot := m.sp.FindSlot(rowNode, colNode)
	if slot < 0 {
		panic(fmt.Sprintf("la: block (%d,%d) not in finalized sparsity", rowNode, colNode))
	}
	m.AddBlockAt(slot, block)
}

// Finalize converts the assembly map into CSR arrays. Subsequent AddBlock
// calls must hit existing positions (same sparsity), as in PETSc after the
// first assembly.
func (m *BSRMat) Finalize() {
	if m.finalized {
		return
	}
	type ent struct {
		r, c int32
	}
	keys := make([]ent, 0, len(m.build))
	for k := range m.build {
		keys = append(keys, ent{k[0], k[1]})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].r != keys[j].r {
			return keys[i].r < keys[j].r
		}
		return keys[i].c < keys[j].c
	})
	bs2 := m.Bs * m.Bs
	sp := &Sparsity{
		NRows:  m.NRowNodes,
		Indptr: make([]int32, m.NRowNodes+1),
		Cols:   make([]int32, len(keys)),
	}
	m.vals = make([]float64, len(keys)*bs2)
	for i, k := range keys {
		sp.Indptr[k.r+1]++
		sp.Cols[i] = k.c
		copy(m.vals[i*bs2:(i+1)*bs2], m.build[[2]int32{k.r, k.c}])
	}
	for r := 0; r < m.NRowNodes; r++ {
		sp.Indptr[r+1] += sp.Indptr[r]
	}
	m.sp = sp
	m.build = nil
	m.finalized = true
}

// Apply computes y = A*x. x must be a full local vector; ghosts are
// refreshed before the multiply. When the scatter supports split-phase
// exchange and the pattern has boundary rows, the interior rows (derived
// once from the frozen Sparsity) are multiplied while the ghost values are
// still in flight, hiding the exchange behind computation. Implements
// Operator.
func (m *BSRMat) Apply(x, y []float64) {
	if !m.finalized {
		m.Finalize()
	}
	if m.ovScatter != nil {
		interior, boundary := m.sp.RowSplit()
		if len(boundary) > 0 {
			m.ovScatter.GhostReadBegin(x, m.scatterDof)
			m.applySpan(x, y, interior, 0, len(interior))
			m.ovScatter.GhostReadEnd(x, m.scatterDof)
			m.applySpan(x, y, boundary, 0, len(boundary))
			return
		}
		// No boundary rows on this rank. The exchange must still run —
		// it is collective, and peers may borrow this rank's rows — just
		// with nothing to overlap.
	}
	if m.scatter != nil {
		m.scatter.GhostRead(x, m.scatterDof)
	}
	m.applySpan(x, y, nil, 0, m.NRowNodes)
}

// forceGenericSpan routes every applySpan through the run-time loop.
// Only tests set it (before any rank goroutine starts), to show the
// unrolled kernels change no bit of a whole run.
var forceGenericSpan bool

// applySpan multiplies rows[lo:hi] (or block rows [lo, hi) when rows is
// nil) of A into y. The bs = 1, 2 kernels and the k = 2, 3 interleaved
// ones are the run-time loop unrolled with the row sums in registers — the
// products of a row are added in the same order, so all of them produce
// the same bits.
func (m *BSRMat) applySpan(x, y []float64, rows []int32, lo, hi int) {
	switch {
	case forceGenericSpan:
		m.applySpanN(x, y, rows, lo, hi)
	case m.k == 2:
		m.applySpanK2(x, y, rows, lo, hi)
	case m.k == 3:
		m.applySpanK3(x, y, rows, lo, hi)
	case m.Bs == 1:
		m.applySpan1(x, y, rows, lo, hi)
	case m.Bs == 2:
		m.applySpan2(x, y, rows, lo, hi)
	default:
		m.applySpanN(x, y, rows, lo, hi)
	}
}

func (m *BSRMat) applySpan1(x, y []float64, rows []int32, lo, hi int) {
	indptr, cols, vals := m.sp.Indptr, m.sp.Cols, m.vals
	for i := lo; i < hi; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		a, b := int(indptr[r]), int(indptr[r+1])
		rc, rv := cols[a:b], vals[a:b]
		var s float64
		for k, c := range rc {
			s += rv[k] * x[c]
		}
		y[r] = s
	}
}

func (m *BSRMat) applySpan2(x, y []float64, rows []int32, lo, hi int) {
	indptr, cols, vals := m.sp.Indptr, m.sp.Cols, m.vals
	for i := lo; i < hi; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		a, b := int(indptr[r]), int(indptr[r+1])
		rc, rv := cols[a:b], vals[4*a:4*b]
		var s0, s1 float64
		for k, c := range rc {
			v, xc := rv[4*k:4*k+4], x[2*int(c):2*int(c)+2]
			s0 = s0 + v[0]*xc[0] + v[1]*xc[1]
			s1 = s1 + v[2]*xc[0] + v[3]*xc[1]
		}
		yr := y[2*r : 2*r+2]
		yr[0], yr[1] = s0, s1
	}
}

// applySpanK2 and applySpanK3 apply a scalar A to 2 and 3 interleaved
// components: each component sums the products applySpan1 sums for it
// alone, in the same order.
func (m *BSRMat) applySpanK2(x, y []float64, rows []int32, lo, hi int) {
	indptr, cols, vals := m.sp.Indptr, m.sp.Cols, m.vals
	for i := lo; i < hi; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		a, b := int(indptr[r]), int(indptr[r+1])
		rc, rv := cols[a:b], vals[a:b]
		var s0, s1 float64
		for k, c := range rc {
			v, xc := rv[k], x[2*int(c):2*int(c)+2]
			s0 += v * xc[0]
			s1 += v * xc[1]
		}
		yr := y[2*r : 2*r+2]
		yr[0], yr[1] = s0, s1
	}
}

func (m *BSRMat) applySpanK3(x, y []float64, rows []int32, lo, hi int) {
	indptr, cols, vals := m.sp.Indptr, m.sp.Cols, m.vals
	for i := lo; i < hi; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		a, b := int(indptr[r]), int(indptr[r+1])
		rc, rv := cols[a:b], vals[a:b]
		var s0, s1, s2 float64
		for k, c := range rc {
			v, xc := rv[k], x[3*int(c):3*int(c)+3]
			s0 += v * xc[0]
			s1 += v * xc[1]
			s2 += v * xc[2]
		}
		yr := y[3*r : 3*r+3]
		yr[0], yr[1], yr[2] = s0, s1, s2
	}
}

// applySpanN is the run-time kernel (bs >= 3, or any shape under
// forceGenericSpan), accumulating each block row's bs·k sums in a stack
// buffer; bs·k <= maxBs by construction (k > 1 only at bs = 1).
func (m *BSRMat) applySpanN(x, y []float64, rows []int32, lo, hi int) {
	bs, k := m.Bs, m.k
	bs2, n := bs*bs, bs*k
	indptr, cols, vals := m.sp.Indptr, m.sp.Cols, m.vals
	for i := lo; i < hi; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		var acc [maxBs]float64
		a := acc[:n]
		for j := indptr[r]; j < indptr[r+1]; j++ {
			c := int(cols[j]) * n
			blk := vals[int(j)*bs2 : int(j+1)*bs2]
			for bi := 0; bi < bs; bi++ {
				row := blk[bi*bs : (bi+1)*bs]
				for d := 0; d < k; d++ {
					s := a[bi*k+d]
					for bj := 0; bj < bs; bj++ {
						s += row[bj] * x[c+bj*k+d]
					}
					a[bi*k+d] = s
				}
			}
		}
		copy(y[r*n:(r+1)*n], a)
	}
}

// ZeroRow zeroes every stored entry of scalar row (node*Bs+dof) and sets
// its diagonal to diag. Used to impose Dirichlet boundary conditions after
// assembly; on a SetComps matrix the row is the node's on every component.
func (m *BSRMat) ZeroRow(row int, diag float64) {
	if !m.finalized {
		m.Finalize()
	}
	bs := m.Bs
	bs2 := bs * bs
	rn, rd := row/bs, row%bs
	for j := m.sp.Indptr[rn]; j < m.sp.Indptr[rn+1]; j++ {
		blk := m.vals[int(j)*bs2 : int(j+1)*bs2]
		for bj := 0; bj < bs; bj++ {
			blk[rd*bs+bj] = 0
		}
		if int(m.sp.Cols[j]) == rn {
			blk[rd*bs+rd] = diag
		}
	}
}

// NNZBlocks returns the stored block count.
func (m *BSRMat) NNZBlocks() int {
	if !m.finalized {
		return len(m.build)
	}
	return len(m.sp.Cols)
}
