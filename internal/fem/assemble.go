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

// planIdx maps a layout to its send-store slot: BAIJ and zipped assembly
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
}

// Assembler drives distributed matrix and vector assembly over a mesh.
// It holds the assembly plans of its mesh generation: NewMatrix derives a
// layout's sparsity from the mesh before any values exist, and every
// matrix assembly — the first one included — is the same plan-driven
// flat-array accumulation in element order. At a fixed rank count every
// route to a matrix (fresh, reassembled, patched by Rebind, restarted)
// therefore sums in the same order and gives the same bits.
//
// The node-block plan (BAIJ and zipped) does not depend on the dofs per
// node: one pattern, one slot per entry and one off-process routing serve
// every block size. Assemblers made by Sibling share it — one plan per
// mesh generation and rank for all of them, as PETSc operators share a
// MatDuplicate(MAT_SHARE_NONZERO_PATTERN) pattern — and each keeps only
// its own off-process value store. The scalar AIJ plan expands the
// pattern to Ndof scalar rows per node, so it is each assembler's own.
type Assembler struct {
	M    *mesh.Mesh
	Ref  *Ref
	Ndof int

	scr elemScratch

	// aij is the scalar AIJ plan; g holds the node-block plan the
	// siblings share.
	aij *AssemblyPlan
	g   *siblings
	// send holds the off-process value stores, by planIdx.
	send [2]sendStore

	// epoch tags the mesh generation the plans were built for; see Rebind.
	epoch uint64
}

// siblings is a set of assemblers on one mesh sharing one node-block plan
// (nil until the first node-block NewMatrix of a mesh generation).
type siblings struct {
	members []*Assembler
	block   *AssemblyPlan
}

// sendStore is one assembler's off-process values of a plan: ndof² values
// per off-process entry, rewritten each assembly and sent without keys;
// bufs are rank-major views into vals, one per plan.offDests rank. It is
// the one part of a shared plan sized by the dofs per node.
type sendStore struct {
	plan *AssemblyPlan
	vals []float64
	bufs [][]float64
}

// Sibling returns an assembler for ndof unknowns per node on a's mesh that
// shares a's node-block plan: whichever sibling's NewMatrix comes first
// on a mesh generation builds it (collectively), and the others' node-block
// NewMatrix reuses it without communication. Rebind on any sibling moves
// them all.
func (a *Assembler) Sibling(ndof int) *Assembler {
	b := NewAssembler(a.M, ndof)
	b.g, b.epoch = a.g, a.epoch
	a.g.members = append(a.g.members, b)
	return b
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
	}}
	a.g = &siblings{members: []*Assembler{a}}
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

// Plan returns the cached plan for a layout, or nil before the layout's
// first NewMatrix (or after a Rebind dropped it). The node-block plan is
// the siblings' shared one.
func (a *Assembler) Plan(layout Layout) *AssemblyPlan {
	if layout == LayoutAIJ {
		return a.aij
	}
	return a.g.block
}

// NewMatrix returns a zero matrix for the layout over the layout's frozen
// sparsity, shared by every matrix of the layout (and, for the node-block
// layouts, of every sibling) until the next Rebind. The first call that
// finds no plan on a mesh generation derives that sparsity from the mesh
// and builds the assembly plan (buildPlan), so it is collective: every
// rank calls it for the same layouts in the same order.
func (a *Assembler) NewMatrix(layout Layout) *la.BSRMat {
	if layout == LayoutAIJ {
		if a.aij == nil {
			a.aij = a.buildPlan(true)
		}
		return la.NewAIJFromSparsity(a.M, a.Ndof, a.M.NumOwned, a.M.NumLocal, a.aij.sp)
	}
	if a.g.block == nil {
		a.g.block = a.buildPlan(false)
	}
	return la.NewBAIJFromSparsity(a.M, a.Ndof, a.M.NumOwned, a.M.NumLocal, a.g.block.sp)
}

// planFor returns the plan to assemble mat through and the assembler's
// value store for its off-process entries, panicking unless mat was made
// by this assembler's NewMatrix for the layout (or, for a node-block
// layout, a sibling's at the same dofs per node) since the last Rebind.
func (a *Assembler) planFor(mat *la.BSRMat, layout Layout) (*AssemblyPlan, *sendStore) {
	p := a.Plan(layout)
	if p == nil || mat.Sparsity() != p.sp || !p.scalar && mat.Bs != a.Ndof {
		panic("fem: matrix not made by this assembler's NewMatrix for this layout and mesh generation")
	}
	s := &a.send[planIdx(layout)]
	if s.plan != p {
		bs2, n := a.Ndof*a.Ndof, 0
		for _, c := range p.offCount {
			n += c
		}
		*s = sendStore{plan: p, vals: make([]float64, n*bs2), bufs: make([][]float64, len(p.offCount))}
		rest := s.vals
		for i, c := range p.offCount {
			s.bufs[i], rest = rest[:c*bs2], rest[c*bs2:]
		}
	}
	return p, s
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
	plan, send := a.planFor(mat, layout)
	a.assemble(mat, plan, send, kern, nil)
}

// AssembleMatrixZipped runs the element loop with a zipped kernel; blocks
// are unzipped per node pair straight into the node-block plan.
// Collective.
func (a *Assembler) AssembleMatrixZipped(mat *la.BSRMat, kern ZippedKernel) {
	plan, send := a.planFor(mat, LayoutZipped)
	a.assemble(mat, plan, send, nil, kern)
}

// assemble is the one numeric path: plan-driven flat-array accumulation
// straight into the matrix values, one element after another, then the
// off-process flush.
func (a *Assembler) assemble(mat *la.BSRMat, plan *AssemblyPlan, send *sendStore, kern NodeMajorKernel, zkern ZippedKernel) {
	m := a.M
	off := send.vals
	vals := mat.Vals()
	cpe := m.CornersPerElem()
	nd := a.Ndof
	npe := a.Ref.NPE
	n := npe * nd
	blk := a.scr.blk
	idx := int32(0)
	var cs corners
	for e := 0; e < m.NumElems(); e++ {
		h := m.ElemSize(e)
		cs.load(m, e)
		if kern != nil {
			ke := a.scr.ke
			for i := range ke {
				ke[i] = 0
			}
			kern(0, e, h, ke)
			for ca := 0; ca < cpe; ca++ {
				for cb := 0; cb < cpe; cb++ {
					for di := 0; di < nd; di++ {
						for dj := 0; dj < nd; dj++ {
							blk[di*nd+dj] = ke[(ca*nd+di)*n+cb*nd+dj]
						}
					}
					idx = plan.applyBlock(vals, off, idx, &cs, ca, cb, blk, nd)
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
			// conforming pair (unit weight) into a local block — most
			// pairs — adds straight from the zipped blocks, the same adds
			// applyBlock makes, without gathering blk first.
			for ca := 0; ca < cpe; ca++ {
				for cb := 0; cb < cpe; cb++ {
					k := ca*npe + cb
					if len(cs.idx[ca]) == 1 && len(cs.idx[cb]) == 1 {
						if slot := plan.entries[idx].slot; slot >= 0 {
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
					idx = plan.applyBlock(vals, off, idx, &cs, ca, cb, blk, nd)
				}
			}
		}
	}
	a.flushPlanned(mat, plan, send)
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

// flushPlanned exchanges the off-process values (no keys: the receivers
// resolved them into slots at plan build) and applies each received batch
// through its source's receive plan, in ascending source rank whatever the
// arrival order. The trailing barrier lets senders rewrite their buffers
// next assembly: payloads travel by reference in the in-process runtime.
func (a *Assembler) flushPlanned(mat *la.BSRMat, plan *AssemblyPlan, send *sendStore) {
	c := a.M.Comm
	if c.Size() == 1 {
		return
	}
	srcs, recvd := par.NBXExchange(c, plan.offDests, send.bufs)
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

// WorkerVecKernel fills the node-major elemental vector fe[a*ndof+d] for
// element e; w is always 0, as for NodeMajorKernel.
type WorkerVecKernel func(w, e int, h float64, fe []float64)

// AssembleVectorPlanned is AssembleVector over the assembler's persistent
// element scratch: the same element loop and scatter, so the same bits,
// with zero steady-state allocation. Collective.
func (a *Assembler) AssembleVectorPlanned(v []float64, kern WorkerVecKernel) {
	a.assembleVec(v, kern)
}

func (a *Assembler) assembleVec(v []float64, kern WorkerVecKernel) {
	for i := range v {
		v[i] = 0
	}
	m := a.M
	fe := a.scr.fe
	for e := 0; e < m.NumElems(); e++ {
		h := m.ElemSize(e)
		for i := range fe {
			fe[i] = 0
		}
		kern(0, e, h, fe)
		m.ScatterAddElem(e, fe, a.Ndof, v)
	}
	m.GhostWrite(v, a.Ndof, mesh.Add, 0)
}
