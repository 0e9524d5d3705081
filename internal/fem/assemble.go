package fem

import (
	"fmt"
	"runtime"
	"sort"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/par"
)

// NodeMajorKernel fills the elemental matrix Ke for element e in
// node-major layout: Ke[(a*ndof+di)*(npe*ndof) + b*ndof+dj]. The worker
// index w names the element-loop shard invoking the kernel: kernels with
// mutable scratch must keep one copy per worker (index it by w, sized by
// Assembler.Workers) so the sharded loop stays race-free. Serial callers
// always see w == 0.
type NodeMajorKernel func(w, e int, h float64, ke []float64)

// ZippedKernel fills dof-pair-major blocks for element e:
// blocks[di*ndof+dj] is a contiguous npe x npe scalar block (the zipped
// layout produced by the GEMM operators). The worker index w follows the
// same per-shard contract as NodeMajorKernel; use Assembler.WorkN(w) for
// per-worker GEMM scratch.
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

// workerScratch is one element-loop shard's private state, so the
// parallel loop runs with zero shared mutable scratch and zero
// per-element allocation.
type workerScratch struct {
	ke     []float64
	blocks [][]float64
	blk    []float64
	wk     *GemmWork
	vals   []float64 // accumulation buffer for workers > 0
	fe     []float64 // elemental vector (planned vector assembly)
	fz     []float64 // zipped elemental vector (planned vector assembly)
}

// Assembler drives distributed matrix and vector assembly over a mesh.
// It owns the per-(mesh, ndof) assembly plans: NewMatrix derives a
// layout's sparsity from the mesh before any values exist, and every
// matrix assembly — the first one included — is the same plan-driven
// flat-array accumulation. At a fixed rank and worker count every route
// to a matrix (fresh, reassembled, patched by Rebind, restarted) therefore
// sums in the same order and gives the same bits; different worker counts
// agree to roundoff.
type Assembler struct {
	M    *mesh.Mesh
	Ref  *Ref
	Ndof int

	// workers is the element-loop shard count for plan-driven matrix
	// assembly (default: GOMAXPROCS divided among the in-process ranks).
	workers int
	ws      []workerScratch

	// pool, when set, runs the element-loop shards and the merge on a
	// persistent worker pool instead of spawning goroutines per assembly
	// — the same pool the solve-path kernels dispatch to. The sh* fields
	// are the prebuilt shard closures and their argument slots, so the
	// pool dispatch itself allocates nothing per assembly.
	pool            *par.Pool
	elemFn, mergeFn func(w int)
	shVals          []float64
	shPlan          *AssemblyPlan
	shKern          NodeMajorKernel
	shZKern         ZippedKernel
	shN, shNW       int

	// Planned vector assembly: the cached vector plan, an optional shard
	// count override (0: follow workers) and the prebuilt shard closures
	// with their argument slots (see vecplan.go).
	vplan                  *VecPlan
	vecWorkers             int
	vecElemFn, vecGatherFn func(w int)
	shVec                  []float64
	shVKern                WorkerVecKernel
	shVZKern               WorkerZippedVecKernel
	shVN, shVNW            int
	shVLo, shVHi           int

	// plans[0] is the scalar AIJ plan, plans[1] the node-block plan
	// shared by BAIJ and zipped assembly.
	plans [2]*AssemblyPlan

	// epoch tags the mesh generation the plans were built for; see Rebind.
	epoch uint64
}

// NewAssembler builds an assembler for ndof unknowns per node.
func NewAssembler(m *mesh.Mesh, ndof int) *Assembler {
	r := NewRef(m.Dim)
	a := &Assembler{M: m, Ref: r, Ndof: ndof}
	a.workers = runtime.GOMAXPROCS(0) / m.Comm.Size()
	if a.workers < 1 {
		a.workers = 1
	}
	a.ensureWorkers(1)
	return a
}

// ensureWorkers grows the per-worker scratch pool to n entries.
func (a *Assembler) ensureWorkers(n int) {
	for len(a.ws) < n {
		npe := a.Ref.NPE
		nn := npe * a.Ndof
		s := workerScratch{
			ke:  make([]float64, nn*nn),
			blk: make([]float64, a.Ndof*a.Ndof),
			wk:  NewGemmWork(a.Ref),
			fe:  make([]float64, nn),
			fz:  make([]float64, nn),
		}
		s.blocks = make([][]float64, a.Ndof*a.Ndof)
		for j := range s.blocks {
			s.blocks[j] = make([]float64, npe*npe)
		}
		a.ws = append(a.ws, s)
	}
}

// Workers returns the element-loop shard count kernels must size their
// per-worker scratch for.
func (a *Assembler) Workers() int { return a.workers }

// SetWorkers overrides the element-loop shard count (n >= 1). The count
// fixes the order in which shard sums are merged, so two counts agree to
// roundoff, not bitwise; at one count every assembly route is bitwise
// identical.
func (a *Assembler) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	a.workers = n
}

// SetPool runs matrix assemblies on the given persistent pool (sharing its
// workers with the solve-path kernels) instead of spawning goroutines per
// call. The shard count stays min(Workers(), pool.Workers()), so results
// are unchanged.
func (a *Assembler) SetPool(p *par.Pool) { a.pool = p }

// Work returns worker 0's GEMM scratch (for serial zipped kernels).
func (a *Assembler) Work() *GemmWork { return a.WorkN(0) }

// WorkN returns worker w's GEMM scratch.
func (a *Assembler) WorkN(w int) *GemmWork {
	a.ensureWorkers(w + 1)
	return a.ws[w].wk
}

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
	// Operators inherit the assembler's pool: SpMV shards across the same
	// workers as the element loop (bitwise-identical to serial).
	mat.SetPool(a.pool)
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
// LayoutBAIJ) through the layout's plan: flat-array adds sharded across
// workers, no map operations. Contributions to rows owned remotely are
// exchanged with NBX at the end (PETSc's off-process assembly). mat must
// come from NewMatrix. Collective.
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

// assemble is the one numeric path: plan-driven flat-array accumulation,
// sharded across workers. Worker 0 accumulates directly into the matrix
// values (with one worker the order is the serial element order);
// workers 1..n-1 accumulate into private buffers merged afterwards in
// worker order.
func (a *Assembler) assemble(mat *la.BSRMat, plan *AssemblyPlan, kern NodeMajorKernel, zkern ZippedKernel) {
	n := a.M.NumElems()
	nw := a.workers
	if a.pool != nil && a.pool.Workers() < nw {
		nw = a.pool.Workers()
	}
	if nw > n {
		nw = n
	}
	if nw < 1 {
		nw = 1
	}
	a.ensureWorkers(nw)
	vals := mat.Vals()
	if nw == 1 {
		a.runShard(0, 0, n, vals, plan, kern, zkern)
	} else {
		if a.elemFn == nil {
			a.elemFn, a.mergeFn = a.runElemShard, a.runMergeShard
		}
		a.shVals, a.shPlan, a.shKern, a.shZKern, a.shN, a.shNW = vals, plan, kern, zkern, n, nw
		a.runSharded(a.elemFn, nw)
		a.runSharded(a.mergeFn, nw)
		a.shVals, a.shPlan, a.shKern, a.shZKern = nil, nil, nil, nil
	}
	a.flushPlanned(mat, plan)
}

// runElemShard is the prebuilt element-loop shard: worker 0 accumulates
// directly into the matrix values; workers 1..nw-1 zero and fill their
// private buffers (the O(nnz) memset parallelizes instead of serializing
// the launch).
func (a *Assembler) runElemShard(w int) {
	nw, n := a.shNW, a.shN
	if w >= nw {
		return
	}
	lo, hi := par.Shard(w, nw, n)
	if w == 0 {
		a.runShard(0, lo, hi, a.shVals, a.shPlan, a.shKern, a.shZKern)
		return
	}
	ws := &a.ws[w]
	if len(ws.vals) != len(a.shVals) {
		ws.vals = make([]float64, len(a.shVals))
	} else {
		for i := range ws.vals {
			ws.vals[i] = 0
		}
	}
	a.runShard(w, lo, hi, ws.vals, a.shPlan, a.shKern, a.shZKern)
}

// runMergeShard merges the worker buffers into the matrix values, sharded
// by index range so the merge itself parallelizes; every index still sums
// workers in order 1..nw-1, keeping the result independent of merge
// scheduling.
func (a *Assembler) runMergeShard(s int) {
	nw := a.shNW
	if s >= nw {
		return
	}
	vals := a.shVals
	nv := len(vals)
	lo, hi := par.Shard(s, nw, nv)
	for w := 1; w < nw; w++ {
		buf := a.ws[w].vals
		for i := lo; i < hi; i++ {
			vals[i] += buf[i]
		}
	}
}

// runShard assembles elements [e0,e1) with worker w's scratch,
// accumulating local contributions into vals and off-process ones into
// the plan's preallocated rank buffers (each plan entry is written by
// exactly one element, so shards never contend).
func (a *Assembler) runShard(w, e0, e1 int, vals []float64, plan *AssemblyPlan, kern NodeMajorKernel, zkern ZippedKernel) {
	m := a.M
	ws := &a.ws[w]
	cpe := m.CornersPerElem()
	nd := a.Ndof
	npe := a.Ref.NPE
	n := npe * nd
	blk := ws.blk
	idx := plan.elemOff[e0]
	for e := e0; e < e1; e++ {
		h := m.ElemSize(e)
		if kern != nil {
			ke := ws.ke
			for i := range ke {
				ke[i] = 0
			}
			kern(w, e, h, ke)
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
			blocks := ws.blocks
			for _, b := range blocks {
				for i := range b {
					b[i] = 0
				}
			}
			zkern(w, e, h, blocks)
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
// and pushes ghost contributions to owners. This is the serial reference
// path (and the bitwise contract AssembleVectorPlanned is tested
// against); hot-loop callers use the sharded, allocation-free planned
// variant in vecplan.go. Collective.
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
