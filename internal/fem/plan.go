package fem

import (
	"fmt"

	"proteus/internal/la"
	"proteus/internal/mesh"
)

// planEntry is one precomputed contribution destination: element loop ×
// corner pair × constraint-donor pair, in traversal order. A local entry
// holds its CSR slot (the block slot for node-block layouts, the slot of
// the block's first scalar entry for AIJ); an off-process entry holds the
// bit-complement of its index into the plan's send store. Nothing else is
// stored: the weight is the product of the corner pair's donor weights and
// the AIJ row stride is the row's length in the sparsity, both read where
// the entry is applied.
type planEntry struct {
	slot int32 // >= 0: local slot; < 0: ^index into offStore (ndof² values each)
}

// AssemblyPlan freezes everything about matrix assembly that depends only
// on (mesh, ndof, layout): the sparsity, the destination slot of every
// elemental contribution and the off-process routing. It is built from the
// mesh before the first assembly (Assembler.NewMatrix) or repaired by
// Rebind, and every assembly runs through it as branch-light flat-array
// accumulation with zero map operations and zero per-element allocation —
// the persistent-sparsity counterpart of the paper's Table I assembly
// optimizations, and PETSc's DMCreateMatrix preallocation. One plan fixes
// the summation order of every slot.
type AssemblyPlan struct {
	ndof   int
	scalar bool // AIJ (scalar CSR) addressing
	sp     *la.Sparsity

	// entries in traversal order; elemOff[e] is element e's first entry,
	// where patchPlan finds a clean element's slots to carry over.
	entries []planEntry
	elemOff []int32

	// Off-process sends: ndof² values per entry, rewritten each assembly
	// and sent without keys. offBufs are rank-major views into offStore,
	// in ascending-rank order (offDests).
	offStore []float64
	offDests []int
	offBufs  [][]float64

	// recv holds, in ascending source rank, the slots every sender's
	// batch lands in, resolved from the senders' keys at plan build.
	recv []recvPlan
}

// Sparsity returns the frozen pattern the plan addresses.
func (p *AssemblyPlan) Sparsity() *la.Sparsity { return p.sp }

// Entries returns the precomputed contribution count (diagnostics).
func (p *AssemblyPlan) Entries() int { return len(p.entries) }

// OffProcEntries returns the off-process contribution count.
func (p *AssemblyPlan) OffProcEntries() int { return len(p.offStore) / (p.ndof * p.ndof) }

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

// applyBlock scatters one ndof x ndof corner-pair block through the
// plan entries starting at idx — one per donor pair, i over conA's donors
// and then j over conB's, the plan's traversal order — and returns the
// next entry index. This is the entire warm-path inner loop: weighted
// flat-array adds for local slots, weighted value writes for off-process
// entries. The weight of a donor pair is the product of its two donor
// weights and an AIJ row's stride its length in the sparsity. The
// conforming pair (one donor each) is the common case and skips the
// donor loops.
func (p *AssemblyPlan) applyBlock(vals []float64, idx int32, conA, conB *mesh.Constraint, blk []float64, nd int) int32 {
	bs2 := nd * nd
	blk = blk[:bs2]
	if conA.N == 1 && conB.N == 1 {
		slot := p.entries[idx].slot
		w := conA.W[0] * conB.W[0]
		switch {
		case slot < 0:
			p.offWrite(slot, w, blk)
		case p.scalar:
			p.addScalar(vals, int(slot), int(conA.Idx[0]), w, blk, nd)
		case w == 1:
			dst := vals[int(slot)*bs2:][:bs2]
			for i, v := range blk {
				dst[i] += v
			}
		default:
			dst := vals[int(slot)*bs2:][:bs2]
			for i, v := range blk {
				dst[i] += w * v
			}
		}
		return idx + 1
	}
	for i := 0; i < int(conA.N); i++ {
		row, wi := int(conA.Idx[i]), conA.W[i]
		for j := 0; j < int(conB.N); j++ {
			slot := p.entries[idx].slot
			idx++
			w := wi * conB.W[j]
			switch {
			case slot < 0:
				p.offWrite(slot, w, blk)
			case p.scalar:
				p.addScalar(vals, int(slot), row, w, blk, nd)
			default:
				dst := vals[int(slot)*bs2:][:bs2]
				for i, v := range blk {
					dst[i] += w * v
				}
			}
		}
	}
	return idx
}

// addScalar adds w·blk to the AIJ node block of row node row whose first
// scalar entry is slot base. Its nd scalar rows lie one row length apart;
// a one-dof block is a single value.
func (p *AssemblyPlan) addScalar(vals []float64, base, row int, w float64, blk []float64, nd int) {
	if nd == 1 {
		vals[base] += w * blk[0]
		return
	}
	r0 := row * nd
	stride := int(p.sp.Indptr[r0+1] - p.sp.Indptr[r0])
	for di := 0; di < nd; di++ {
		dst := vals[base+di*stride:][:nd]
		for dj, v := range blk[di*nd : di*nd+nd] {
			dst[dj] += w * v
		}
	}
}

// offWrite stores w·blk as the values of off-process entry ^slot.
func (p *AssemblyPlan) offWrite(slot int32, w float64, blk []float64) {
	dst := p.offStore[int(^slot)*len(blk):][:len(blk)]
	for i, v := range blk {
		dst[i] = w * v
	}
}

// recvPlan is the receive side of the off-process exchange for one
// source rank: the batch a fixed sender produces from a fixed plan is
// static, so the slot of each of its entries is resolved once, at plan
// build, from the keys the sender ships then; later flushes carry values
// only.
type recvPlan struct {
	src       int
	slot, aux []int32 // aux: AIJ scalar row stride (nil for node blocks)
}

// resolveRecv builds the receive plan of one source's key batch.
func (a *Assembler) resolveRecv(p *AssemblyPlan, src int, keys []nodePair) recvPlan {
	nd := a.Ndof
	rp := recvPlan{src: src, slot: make([]int32, len(keys))}
	if p.scalar {
		rp.aux = make([]int32, len(keys))
	}
	for k, np := range keys {
		rowNode, ok := a.M.NodeIndex(np.Row)
		if !ok {
			panic(fmt.Sprintf("fem: off-process row %v unknown on owner", np.Row))
		}
		colNode, ok := a.M.NodeIndex(np.Col)
		if !ok {
			panic(fmt.Sprintf("fem: off-process column %v unknown on rank %d", np.Col, a.M.Comm.Rank()))
		}
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

// apply accumulates a received batch of ndof² values per entry through
// the cached slots. The weights were folded in by the sender, so this is
// a plain add.
func (rp *recvPlan) apply(vals, batch []float64, nd int) {
	bs2 := nd * nd
	if len(batch) != len(rp.slot)*bs2 {
		panic(fmt.Sprintf("fem: off-process batch from rank %d has %d values, plan expects %d", rp.src, len(batch), len(rp.slot)*bs2))
	}
	for k, s := range rp.slot {
		v := batch[k*bs2 : k*bs2+bs2]
		if rp.aux != nil {
			base, stride := int(s), int(rp.aux[k])
			for di := 0; di < nd; di++ {
				dst := vals[base+di*stride:][:nd]
				for dj := range dst {
					dst[dj] += v[di*nd+dj]
				}
			}
		} else {
			dst := vals[int(s)*bs2:][:bs2]
			for i := range dst {
				dst[i] += v[i]
			}
		}
	}
}
