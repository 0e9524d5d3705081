package fem

import (
	"fmt"

	"proteus/internal/la"
	"proteus/internal/mesh"
)

// planEntry is one precomputed contribution destination: element loop ×
// corner pair × constraint-donor pair, in traversal order. Local entries
// carry the CSR slot (block slot for node-block layouts; the scalar base
// slot plus per-dof-row stride for AIJ); off-process entries carry the
// bit-complement of their index into the plan's prefilled send store.
type planEntry struct {
	w    float64
	slot int32 // >= 0: local slot; < 0: ^slot indexes offStore
	aux  int32 // AIJ local entries: scalar row stride (row nnz)
}

// AssemblyPlan freezes everything about matrix assembly that depends only
// on (mesh, ndof, layout): the sparsity, the destination slot of every
// elemental contribution and the off-process routing. It is built from the
// mesh before the first assembly (Assembler.NewMatrix) or repaired by
// Rebind, and every assembly runs through it as branch-light flat-array
// accumulation with zero map operations and zero per-element allocation —
// the persistent-sparsity counterpart of the paper's Table I assembly
// optimizations, and PETSc's DMCreateMatrix preallocation. One plan at
// one worker count fixes the summation order of every slot.
type AssemblyPlan struct {
	ndof   int
	scalar bool // AIJ (scalar CSR) addressing
	sp     *la.Sparsity

	// entries in traversal order; elemOff[e] is element e's first entry,
	// so shards of the parallel loop index independently.
	entries []planEntry
	elemOff []int32

	// Off-process sends: keys prefilled at plan build, values rewritten
	// each assembly. offBufs are rank-major views into offStore, in
	// ascending-rank order (offDests).
	offStore []offProc
	offDests []int
	offBufs  [][]offProc

	// recv[src] caches the receive-side slots for src's (static) batch;
	// built on the first flush, validated against the keys on every
	// later flush.
	recv []*recvPlan
}

// Sparsity returns the frozen pattern the plan addresses.
func (p *AssemblyPlan) Sparsity() *la.Sparsity { return p.sp }

// Entries returns the precomputed contribution count (diagnostics).
func (p *AssemblyPlan) Entries() int { return len(p.entries) }

// OffProcEntries returns the off-process contribution count.
func (p *AssemblyPlan) OffProcEntries() int { return len(p.offStore) }

// buildPlan derives one layout's plan from the mesh alone: the node-block
// pattern is the dirty-row sweep of Rebind with every row dirty (local
// couplings plus the off-process ones their owners receive), expanded to
// scalar rows for AIJ, and every entry resolves against it by search.
// Collective when the communicator has more than one rank.
func (a *Assembler) buildPlan(scalar bool) *AssemblyPlan {
	sp := patchNodeSparsity(a.M, nodePattern{}, nil, nil, a.dirtyRowPairs(nil))
	if scalar {
		sp = expandScalarSparsity(sp, a.Ndof)
	}
	return a.patchPlan(nil, nil, nil, sp, scalar)
}

// aijSlot resolves the scalar-CSR addressing of the ndof x ndof node
// block (rowNode, colNode): the slot of its first scalar entry plus the
// stride between consecutive dof rows. Assembly always writes full node
// blocks, so every scalar row of a node has the same column pattern; the
// layout is verified here (once, at plan build) and then trusted on the
// hot path.
func aijSlot(sp *la.Sparsity, rowNode, colNode, nd int) (base, stride int) {
	r0 := rowNode * nd
	base = sp.FindSlot(r0, colNode*nd)
	if base < 0 {
		panic(fmt.Sprintf("fem: plan entry (%d,%d) missing from frozen AIJ sparsity", rowNode, colNode))
	}
	stride = sp.RowLen(r0)
	for di := 0; di < nd; di++ {
		r := r0 + di
		if sp.RowLen(r) != stride {
			panic(fmt.Sprintf("fem: AIJ scalar rows of node %d have differing patterns", rowNode))
		}
		s := base + di*stride
		for dj := 0; dj < nd; dj++ {
			if sp.Cols[s+dj] != int32(colNode*nd+dj) {
				panic(fmt.Sprintf("fem: AIJ pattern of node %d not block-regular at column node %d", rowNode, colNode))
			}
		}
	}
	return base, stride
}

// applyBlock scatters one ndof x ndof corner-pair block through the n
// consecutive plan entries starting at idx and returns the next entry
// index. This is the entire warm-path inner loop: weighted flat-array
// adds for local slots, weighted value writes for off-process entries.
func (p *AssemblyPlan) applyBlock(vals []float64, idx int32, n int, blk []float64, nd int) int32 {
	bs2 := nd * nd
	for k := 0; k < n; k++ {
		ent := &p.entries[idx]
		idx++
		if ent.slot >= 0 {
			if p.scalar {
				base, stride := int(ent.slot), int(ent.aux)
				w := ent.w
				for di := 0; di < nd; di++ {
					row := base + di*stride
					for dj := 0; dj < nd; dj++ {
						vals[row+dj] += w * blk[di*nd+dj]
					}
				}
			} else {
				base := int(ent.slot) * bs2
				dst := vals[base : base+bs2]
				if w := ent.w; w == 1 {
					for i, v := range blk[:bs2] {
						dst[i] += v
					}
				} else {
					for i, v := range blk[:bs2] {
						dst[i] += w * v
					}
				}
			}
		} else {
			off := &p.offStore[^ent.slot]
			w := ent.w
			for i := 0; i < bs2; i++ {
				off.V[i] = w * blk[i]
			}
		}
	}
	return idx
}

// recvPlan caches the receive side of the off-process exchange for one
// source rank: the batch a fixed sender produces from a fixed mesh is
// static, so its destination slots are resolved once and only the keys
// are re-checked on later flushes.
type recvPlan struct {
	rows, cols []mesh.NodeKey
	slot, aux  []int32
}

// recvPlanFor returns the cached receive plan for src, (re)building it
// when the batch shape or keys changed.
func (p *AssemblyPlan) recvPlanFor(a *Assembler, src int, batch []offProc) *recvPlan {
	if p.recv == nil {
		p.recv = make([]*recvPlan, a.M.Comm.Size())
	}
	if rp := p.recv[src]; rp != nil && rp.matches(batch) {
		return rp
	}
	rp := a.buildRecvPlan(p, batch)
	p.recv[src] = rp
	return rp
}

func (rp *recvPlan) matches(batch []offProc) bool {
	if len(rp.rows) != len(batch) {
		return false
	}
	for k := range batch {
		if batch[k].Row != rp.rows[k] || batch[k].Col != rp.cols[k] {
			return false
		}
	}
	return true
}

func (a *Assembler) buildRecvPlan(p *AssemblyPlan, batch []offProc) *recvPlan {
	nd := a.Ndof
	rp := &recvPlan{
		rows: make([]mesh.NodeKey, len(batch)),
		cols: make([]mesh.NodeKey, len(batch)),
		slot: make([]int32, len(batch)),
		aux:  make([]int32, len(batch)),
	}
	for k := range batch {
		ent := &batch[k]
		rowNode, ok := a.M.NodeIndex(ent.Row)
		if !ok {
			panic(fmt.Sprintf("fem: off-process row %v unknown on owner", ent.Row))
		}
		colNode, ok := a.M.NodeIndex(ent.Col)
		if !ok {
			panic(fmt.Sprintf("fem: off-process column %v unknown on rank %d", ent.Col, a.M.Comm.Rank()))
		}
		rp.rows[k], rp.cols[k] = ent.Row, ent.Col
		if p.scalar {
			base, stride := aijSlot(p.sp, rowNode, colNode, nd)
			rp.slot[k] = int32(base)
			rp.aux[k] = int32(stride)
		} else {
			s := p.sp.FindSlot(rowNode, colNode)
			if s < 0 {
				panic(fmt.Sprintf("fem: received block (%d,%d) missing from frozen sparsity", rowNode, colNode))
			}
			rp.slot[k] = int32(s)
		}
	}
	return rp
}

// apply accumulates a received batch through the cached slots. The
// weights were folded in by the sender, so this is a plain add.
func (rp *recvPlan) apply(vals []float64, batch []offProc, scalar bool, nd int) {
	bs2 := nd * nd
	for k := range batch {
		V := &batch[k].V
		if scalar {
			base, stride := int(rp.slot[k]), int(rp.aux[k])
			for di := 0; di < nd; di++ {
				row := base + di*stride
				for dj := 0; dj < nd; dj++ {
					vals[row+dj] += V[di*nd+dj]
				}
			}
		} else {
			base := int(rp.slot[k]) * bs2
			for i := 0; i < bs2; i++ {
				vals[base+i] += V[i]
			}
		}
	}
}
