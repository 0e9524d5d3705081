package fem

import (
	"fmt"
	"sort"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/par"
)

// NodeMajorKernel fills the elemental matrix Ke for element e in
// node-major layout: Ke[(a*ndof+di)*(npe*ndof) + b*ndof+dj]. w is always
// 0: each rank runs its element loop on its own goroutine, one element
// after another. The parameter stays because the kernels of
// benchmark/probes.go take it.
type NodeMajorKernel func(w, e int, h float64, ke []float64)

// ZippedKernel fills dof-pair-major blocks for element e:
// blocks[di*ndof+dj] is a contiguous npe x npe scalar block (the zipped
// layout produced by the GEMM operators). w is always 0, as for
// NodeMajorKernel; Assembler.Work is the GEMM scratch.
type ZippedKernel func(w, e int, h float64, blocks [][]float64)

// Layout selects the storage/assembly strategy of Table I.
type Layout int

// Assembly layouts benchmarked in Table I.
const (
	// LayoutAIJ is the baseline: scalar CSR with per-DOF strided writes.
	LayoutAIJ Layout = iota
	// LayoutBAIJ is stage 1: node-blocked storage, one block write per
	// node pair.
	LayoutBAIJ
	// LayoutZipped is stage 2: GEMM-produced zipped blocks unzipped
	// directly into block storage.
	LayoutZipped
)

// planIdx maps a layout to its plan cache slot: BAIJ and zipped assembly
// share the node-block sparsity (the zipped path only changes how the
// elemental block is produced), so they share one plan.
func planIdx(layout Layout) int {
	if layout == LayoutAIJ {
		return 0
	}
	return 1
}

// elemScratch is the element loop's scratch, allocated once per
// assembler, so no element allocates.
type elemScratch struct {
	ke     []float64
	blocks [][]float64
	blk    []float64
	wk     *GemmWork
	fe     []float64 // elemental vector
	fz     []float64 // zipped elemental vector
}

// Assembler drives distributed matrix and vector assembly over a mesh.
// It owns the per-(mesh, ndof) assembly plans: NewMatrix derives a
// layout's sparsity from the mesh before any values exist, and every
// matrix assembly — the first one included — is the same plan-driven
// flat-array accumulation in element order. At a fixed rank count every
// route to a matrix (fresh, reassembled, patched by Rebind, restarted)
// therefore sums in the same order and gives the same bits.
type Assembler struct {
	M    *mesh.Mesh
	Ref  *Ref
	Ndof int

	scr elemScratch

	// plans[0] is the scalar AIJ plan, plans[1] the node-block plan
	// shared by BAIJ and zipped assembly.
	plans [2]*AssemblyPlan

	// epoch tags the mesh generation the plans were built for; see Rebind.
	epoch uint64
}

// NewAssembler builds an assembler for ndof unknowns per node.
func NewAssembler(m *mesh.Mesh, ndof int) *Assembler {
	r := NewRef(m.Dim)
	npe := r.NPE
	nn := npe * ndof
	a := &Assembler{M: m, Ref: r, Ndof: ndof, scr: elemScratch{
		ke:     make([]float64, nn*nn),
		blocks: make([][]float64, ndof*ndof),
		blk:    make([]float64, ndof*ndof),
		wk:     NewGemmWork(r),
		fe:     make([]float64, nn),
		fz:     make([]float64, nn),
	}}
	for j := range a.scr.blocks {
		a.scr.blocks[j] = make([]float64, npe*npe)
	}
	return a
}

// Workers returns 1: a rank assembles on its own goroutine.
//
// Deprecated: kept because benchmark/probes.go sizes its kernel scratch
// with it.
func (a *Assembler) Workers() int { return 1 }

// SetWorkers does nothing.
//
// Deprecated: kept because benchmark/probes.go calls it.
func (a *Assembler) SetWorkers(int) {}

// SetPool does nothing.
//
// Deprecated: kept because benchmark/probes.go calls it.
func (a *Assembler) SetPool(*par.Pool) {}

// Work returns the element loop's GEMM scratch, for zipped kernels.
func (a *Assembler) Work() *GemmWork { return a.scr.wk }

// WorkN returns the element loop's GEMM scratch, whatever w.
//
// Deprecated: kept because benchmark/probes.go calls it; use Work.
func (a *Assembler) WorkN(int) *GemmWork { return a.scr.wk }

// Epoch returns the mesh generation the assembler was last rebound to.
func (a *Assembler) Epoch() uint64 { return a.epoch }

// Plan returns the cached plan for a layout, or nil before the layout's
// first NewMatrix (or after a Rebind dropped it).
func (a *Assembler) Plan(layout Layout) *AssemblyPlan { return a.plans[planIdx(layout)] }

// NewMatrix returns a finalized zero matrix for the layout over the
// layout's frozen sparsity, shared by every matrix of the layout until the
// next Rebind. The layout's first call on a mesh generation derives that
// sparsity from the mesh and builds the assembly plan (buildPlan), so it
// is collective: every rank calls it for the same layouts in the same
// order.
func (a *Assembler) NewMatrix(layout Layout) *la.BSRMat {
	i := planIdx(layout)
	if a.plans[i] == nil {
		a.plans[i] = a.buildPlan(layout == LayoutAIJ)
	}
	sp := a.plans[i].sp
	var mat *la.BSRMat
	if layout == LayoutAIJ {
		mat = la.NewAIJFromSparsity(a.M, a.Ndof, a.M.NumOwned, a.M.NumLocal, sp)
	} else {
		mat = la.NewBAIJFromSparsity(a.M, a.Ndof, a.M.NumOwned, a.M.NumLocal, sp)
	}
	return mat
}

// planFor returns the plan to assemble mat through, panicking unless mat
// was made by this assembler's NewMatrix for the layout since the last
// Rebind.
func (a *Assembler) planFor(mat *la.BSRMat, layout Layout) *AssemblyPlan {
	p := a.plans[planIdx(layout)]
	if p == nil || mat.Sparsity() != p.sp {
		panic("fem: matrix not made by this assembler's NewMatrix for this layout and mesh generation")
	}
	return p
}

// AssembleMatrix runs the element loop with the node-major kernel and
// accumulates into mat using the requested layout (LayoutAIJ or
// LayoutBAIJ) through the layout's plan: flat-array adds, no map
// operations. Contributions to rows owned remotely are exchanged with NBX
// at the end (PETSc's off-process assembly). mat must come from
// NewMatrix. Collective.
func (a *Assembler) AssembleMatrix(mat *la.BSRMat, layout Layout, kern NodeMajorKernel) {
	if layout == LayoutZipped {
		panic("fem: use AssembleMatrixZipped for the zipped layout")
	}
	a.assemble(mat, a.planFor(mat, layout), kern, nil)
}

// AssembleMatrixZipped runs the element loop with a zipped kernel; blocks
// are unzipped per node pair straight into the node-block plan.
// Collective.
func (a *Assembler) AssembleMatrixZipped(mat *la.BSRMat, kern ZippedKernel) {
	a.assemble(mat, a.planFor(mat, LayoutZipped), nil, kern)
}

// assemble is the one numeric path: plan-driven flat-array accumulation
// straight into the matrix values, one element after another, then the
// off-process flush.
func (a *Assembler) assemble(mat *la.BSRMat, plan *AssemblyPlan, kern NodeMajorKernel, zkern ZippedKernel) {
	m := a.M
	vals := mat.Vals()
	cpe := m.CornersPerElem()
	nd := a.Ndof
	npe := a.Ref.NPE
	n := npe * nd
	blk := a.scr.blk
	idx := int32(0)
	for e := 0; e < m.NumElems(); e++ {
		h := m.ElemSize(e)
		if kern != nil {
			ke := a.scr.ke
			for i := range ke {
				ke[i] = 0
			}
			kern(0, e, h, ke)
			for ca := 0; ca < cpe; ca++ {
				conA := &m.Conn[e*cpe+ca]
				for cb := 0; cb < cpe; cb++ {
					conB := &m.Conn[e*cpe+cb]
					for di := 0; di < nd; di++ {
						for dj := 0; dj < nd; dj++ {
							blk[di*nd+dj] = ke[(ca*nd+di)*n+cb*nd+dj]
						}
					}
					idx = plan.applyBlock(vals, idx, conA, conB, blk, nd)
				}
			}
		} else {
			blocks := a.scr.blocks
			for _, b := range blocks {
				for i := range b {
					b[i] = 0
				}
			}
			zkern(0, e, h, blocks)
			// Zipped assembly always runs through the node-block plan. A
			// conforming pair into a local block with unit weight — most
			// pairs — adds straight from the zipped blocks, the same adds
			// applyBlock makes, without gathering blk first.
			for ca := 0; ca < cpe; ca++ {
				conA := &m.Conn[e*cpe+ca]
				for cb := 0; cb < cpe; cb++ {
					conB := &m.Conn[e*cpe+cb]
					k := ca*npe + cb
					if conA.N == 1 && conB.N == 1 {
						if slot := plan.entries[idx].slot; slot >= 0 && conA.W[0]*conB.W[0] == 1 {
							dst := vals[int(slot)*len(blocks):][:len(blocks)]
							for i, b := range blocks {
								dst[i] += b[k]
							}
							idx++
							continue
						}
					}
					for i, b := range blocks {
						blk[i] = b[k]
					}
					idx = plan.applyBlock(vals, idx, conA, conB, blk, nd)
				}
			}
		}
	}
	a.flushPlanned(mat, plan)
}

// srcOrder returns indices of srcs in ascending source-rank order, so
// received contributions are applied in a deterministic order regardless
// of message arrival.
func srcOrder(srcs []int) []int {
	order := make([]int, len(srcs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return srcs[order[i]] < srcs[order[j]] })
	return order
}

// flushPlanned exchanges the plan's off-process values (no keys: the
// receivers resolved them into slots at plan build) and applies each
// received batch through its source's receive plan, in ascending source
// rank whatever the arrival order. The trailing barrier lets senders
// rewrite their buffers next assembly: payloads travel by reference in
// the in-process runtime.
func (a *Assembler) flushPlanned(mat *la.BSRMat, plan *AssemblyPlan) {
	c := a.M.Comm
	if c.Size() == 1 {
		return
	}
	srcs, recvd := par.NBXExchange(c, plan.offDests, plan.offBufs)
	if len(srcs) != len(plan.recv) {
		panic(fmt.Sprintf("fem: rank %d received %d off-process batches, plan expects %d", c.Rank(), len(srcs), len(plan.recv)))
	}
	vals := mat.Vals()
	for k, bi := range srcOrder(srcs) {
		rp := &plan.recv[k]
		if srcs[bi] != rp.src {
			panic(fmt.Sprintf("fem: rank %d received an off-process batch from rank %d, plan expects rank %d", c.Rank(), srcs[bi], rp.src))
		}
		rp.apply(vals, recvd[bi], a.Ndof)
	}
	c.Barrier()
}

// VecKernel fills the node-major elemental vector fe[a*ndof+d].
type VecKernel func(e int, h float64, fe []float64)

// AssembleVector accumulates elemental vectors into v (full local layout)
// and pushes ghost contributions to owners. It allocates its elemental
// vector per call; hot-loop callers use the allocation-free
// AssembleVectorPlanned, which makes the same sums and is tested against
// it. Collective.
func (a *Assembler) AssembleVector(v []float64, kern VecKernel) {
	for i := range v {
		v[i] = 0
	}
	cpe := a.M.CornersPerElem()
	fe := make([]float64, cpe*a.Ndof)
	for e := 0; e < a.M.NumElems(); e++ {
		for i := range fe {
			fe[i] = 0
		}
		kern(e, a.M.ElemSize(e), fe)
		a.M.ScatterAddElem(e, fe, a.Ndof, v)
	}
	a.M.GhostWrite(v, a.Ndof, mesh.Add, 0)
}

// ZippedVecKernel fills the dof-major (zipped) elemental vector
// fz[d*npe+a].
type ZippedVecKernel func(e int, h float64, fz []float64)

// AssembleVectorZipped is the stage-2 vector path: kernels produce zipped
// (dof-contiguous) elemental vectors via DGEMV, which are unzipped before
// the constraint scatter. Collective.
func (a *Assembler) AssembleVectorZipped(v []float64, kern ZippedVecKernel) {
	for i := range v {
		v[i] = 0
	}
	cpe := a.M.CornersPerElem()
	fz := make([]float64, cpe*a.Ndof)
	fe := make([]float64, cpe*a.Ndof)
	for e := 0; e < a.M.NumElems(); e++ {
		for i := range fz {
			fz[i] = 0
		}
		kern(e, a.M.ElemSize(e), fz)
		UnzipVec(a.Ndof, cpe, fz, fe)
		a.M.ScatterAddElem(e, fe, a.Ndof, v)
	}
	a.M.GhostWrite(v, a.Ndof, mesh.Add, 0)
}

// WorkerVecKernel fills the node-major elemental vector fe[a*ndof+d] for
// element e; w is always 0, as for NodeMajorKernel.
type WorkerVecKernel func(w, e int, h float64, fe []float64)

// WorkerZippedVecKernel fills the dof-major (zipped) elemental vector
// fz[d*npe+a] for element e — the stage-2 DGEMV layout, unzipped by the
// assembler before the constraint scatter; w is always 0.
type WorkerZippedVecKernel func(w, e int, h float64, fz []float64)

// AssembleVectorPlanned is AssembleVector over the assembler's persistent
// element scratch: the same element loop and scatter, so the same bits,
// with zero steady-state allocation. Collective.
func (a *Assembler) AssembleVectorPlanned(v []float64, kern WorkerVecKernel) {
	a.assembleVec(v, kern, nil)
}

// AssembleVectorZippedPlanned is AssembleVectorZipped over the
// assembler's persistent element scratch. Collective.
func (a *Assembler) AssembleVectorZippedPlanned(v []float64, kern WorkerZippedVecKernel) {
	a.assembleVec(v, nil, kern)
}

func (a *Assembler) assembleVec(v []float64, kern WorkerVecKernel, zkern WorkerZippedVecKernel) {
	for i := range v {
		v[i] = 0
	}
	m := a.M
	cpe := m.CornersPerElem()
	fe, fz := a.scr.fe, a.scr.fz
	for e := 0; e < m.NumElems(); e++ {
		h := m.ElemSize(e)
		if kern != nil {
			for i := range fe {
				fe[i] = 0
			}
			kern(0, e, h, fe)
		} else {
			for i := range fz {
				fz[i] = 0
			}
			zkern(0, e, h, fz)
			UnzipVec(a.Ndof, cpe, fz, fe)
		}
		m.ScatterAddElem(e, fe, a.Ndof, v)
	}
	m.GhostWrite(v, a.Ndof, mesh.Add, 0)
}
