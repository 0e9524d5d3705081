// Incremental assembly-plan repair: Rebind with a mesh delta moves the
// assembler to a patched mesh (mesh.Patch) without discarding the frozen
// sparsity and plans. Clean rows — nodes the remesh did not touch — keep
// their column pattern (remapped through the mesh delta); only dirty rows are
// recomputed, from one flat sweep of the new constraint table plus an NBX
// of the off-process couplings. The same sweep with every row dirty is how
// NewMatrix derives a fresh pattern, so the patched pattern and plan are
// exactly the ones a fresh assembler on the new mesh builds, and assembly
// after a patched Rebind is bitwise identical to a from-scratch assembly
// at the same rank count.
package fem

import (
	"fmt"
	"slices"
	"sort"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/par"
)

// nodePair is one off-process (row, col) coupling, keyed by node keys so
// the row owner can resolve it against its own numbering.
type nodePair struct {
	Row, Col mesh.NodeKey
}

// nodePattern reads the node-level (block) column pattern of an old plan,
// whether it was frozen in block form or as scalar AIJ (where every node
// block expands to nd x nd scalar entries; aijSlot verified the
// block-regular layout at plan build, so reading every nd-th column of
// the node's first scalar row recovers the node pattern).
type nodePattern struct {
	sp *la.Sparsity
	nd int // 1: sp is the block pattern; else sp is scalar with stride nd
}

func (np nodePattern) rowLen(r int) int {
	if np.nd == 1 {
		return np.sp.RowLen(r)
	}
	return np.sp.RowLen(r*np.nd) / np.nd
}

func (np nodePattern) col(r, k int) int32 {
	if np.nd == 1 {
		return np.sp.Cols[int(np.sp.Indptr[r])+k]
	}
	return np.sp.Cols[int(np.sp.Indptr[r*np.nd])+k*np.nd] / int32(np.nd)
}

// Rebind points the assembler at mesh generation epoch, preserving
// everything mesh-independent: the reference element and the element
// scratch. d is the mesh delta of an incremental build (mesh.Patch): with
// it the cached plans are repaired in place; with nil nothing is known to
// have survived, the plans are dropped and the next NewMatrix of each
// layout builds its plan from the mesh. Either way, matrices made before
// the call no longer assemble. Collective when d is non-nil and the
// assembler holds plans (plans are built collectively, so every rank
// holds the same set): the dirty-row patterns need the off-process
// couplings of the new mesh.
func (a *Assembler) Rebind(m *mesh.Mesh, epoch uint64, d *mesh.Delta) {
	if m.Dim != a.M.Dim {
		panic("fem: Assembler.Rebind across dimensions")
	}
	oldPlans := a.plans
	a.M = m
	a.epoch = epoch
	a.plans[0], a.plans[1] = nil, nil
	if d != nil && (oldPlans[0] != nil || oldPlans[1] != nil) {
		pairs := a.dirtyRowPairs(d)
		var src nodePattern
		if oldPlans[1] != nil {
			src = nodePattern{sp: oldPlans[1].sp, nd: 1}
		} else {
			src = nodePattern{sp: oldPlans[0].sp, nd: a.Ndof}
		}
		oldOf := invertRemap(d.NodeRemap, m.NumLocal)
		blockSp := patchNodeSparsity(m, src, d, oldOf, pairs)
		if oldPlans[1] != nil {
			a.plans[1] = a.patchPlan(oldPlans[1], d, oldOf, blockSp, false)
		}
		if oldPlans[0] != nil {
			a.plans[0] = a.patchPlan(oldPlans[0], d, oldOf, expandScalarSparsity(blockSp, a.Ndof), true)
		}
	}
}

// invertRemap builds the new-to-old node index map from the old-to-new
// remap (-1 for nodes that did not survive: exactly the dirty new nodes).
func invertRemap(remap []int32, newLocal int) []int32 {
	inv := make([]int32, newLocal)
	for i := range inv {
		inv[i] = -1
	}
	for oi, ni := range remap {
		if ni >= 0 {
			inv[ni] = int32(oi)
		}
	}
	return inv
}

// dirtyRowPairs sweeps the new constraint table once, collecting every
// coupling whose row is an owned dirty node (packed row<<32|col, sorted,
// deduplicated) and exchanging the off-process couplings so the owners
// see the contributions remote elements will send during assembly. A nil
// delta marks every row dirty: the pairs are then the whole node-block
// pattern of the mesh. Collective when the communicator has more than one
// rank.
func (a *Assembler) dirtyRowPairs(d *mesh.Delta) []int64 {
	m := a.M
	me := int32(m.Comm.Rank())
	cpe := m.CornersPerElem()
	var pairs []int64
	type destBuf struct {
		seen map[nodePair]bool
		buf  []nodePair
	}
	var dests map[int]*destBuf
	if m.Comm.Size() > 1 {
		dests = make(map[int]*destBuf)
	}
	for e := 0; e < m.NumElems(); e++ {
		for ca := 0; ca < cpe; ca++ {
			conA := &m.Conn[e*cpe+ca]
			for cb := 0; cb < cpe; cb++ {
				conB := &m.Conn[e*cpe+cb]
				for i := 0; i < int(conA.N); i++ {
					rowNode := int(conA.Idx[i])
					owner := m.Owner[rowNode]
					if owner == me && d != nil && !d.DirtyNode[rowNode] {
						continue
					}
					for j := 0; j < int(conB.N); j++ {
						colNode := int(conB.Idx[j])
						if owner == me {
							pairs = append(pairs, int64(rowNode)<<32|int64(colNode))
							continue
						}
						if dests == nil {
							continue
						}
						np := nodePair{m.Keys[rowNode], m.Keys[colNode]}
						dd := dests[int(owner)]
						if dd == nil {
							dd = &destBuf{seen: make(map[nodePair]bool)}
							dests[int(owner)] = dd
						}
						if !dd.seen[np] {
							dd.seen[np] = true
							dd.buf = append(dd.buf, np)
						}
					}
				}
			}
		}
	}
	if c := m.Comm; c.Size() > 1 {
		dr := make([]int, 0, len(dests))
		for r := range dests {
			dr = append(dr, r)
		}
		sort.Ints(dr)
		bufs := make([][]nodePair, len(dr))
		for i, r := range dr {
			bufs[i] = dests[r].buf
		}
		srcs, recvd := par.NBXExchange(c, dr, bufs)
		for bi := range srcs {
			for _, np := range recvd[bi] {
				rowNode, ok := m.NodeIndex(np.Row)
				if !ok {
					panic(fmt.Sprintf("fem: off-process row %v unknown on owner", np.Row))
				}
				colNode, ok := m.NodeIndex(np.Col)
				if !ok {
					panic(fmt.Sprintf("fem: off-process column %v unknown on rank %d", np.Col, c.Rank()))
				}
				if d == nil || d.DirtyNode[rowNode] {
					pairs = append(pairs, int64(rowNode)<<32|int64(colNode))
				}
			}
		}
	}
	slices.Sort(pairs)
	return slices.Compact(pairs)
}

// patchNodeSparsity assembles the node-block pattern of the patched mesh:
// clean owned rows keep the old row remapped through the delta (the delta
// guarantees a clean row's columns keep their relative order under the
// remap, so they stay sorted); dirty rows — every row when d is nil —
// take their sorted, deduplicated pair runs. The result is exactly the
// pattern of a sweep with every row dirty: clean rows receive no remote
// contributions (they are never exchange targets, or they would be dirty)
// and couple only to surviving elements, whose couplings remap one for
// one; dirty rows were recomputed from every local and remote coupling.
func patchNodeSparsity(m *mesh.Mesh, src nodePattern, d *mesh.Delta, oldOf []int32, pairs []int64) *la.Sparsity {
	nr := m.NumOwned
	sp := &la.Sparsity{NRows: nr, Indptr: make([]int32, nr+1)}
	rowStart := make([]int32, nr)
	pi := 0
	total := 0
	dirty := func(r int) bool { return d == nil || d.DirtyNode[r] }
	for r := 0; r < nr; r++ {
		if dirty(r) {
			rowStart[r] = int32(pi)
			for pi < len(pairs) && int(pairs[pi]>>32) == r {
				pi++
			}
			total += pi - int(rowStart[r])
		} else {
			or := oldOf[r]
			if or < 0 {
				panic("fem: clean patched row has no old counterpart")
			}
			total += src.rowLen(int(or))
		}
		sp.Indptr[r+1] = int32(total)
	}
	if pi != len(pairs) {
		panic("fem: dirty-row pairs reference a ghost or unflagged row")
	}
	sp.Cols = make([]int32, total)
	idx := 0
	for r := 0; r < nr; r++ {
		if dirty(r) {
			for k := int(rowStart[r]); k < len(pairs) && int(pairs[k]>>32) == r; k++ {
				sp.Cols[idx] = int32(pairs[k] & 0xffffffff)
				idx++
			}
			continue
		}
		or := int(oldOf[r])
		for k, n := 0, src.rowLen(or); k < n; k++ {
			nc := d.NodeRemap[src.col(or, k)]
			if nc < 0 {
				panic("fem: clean patched row references a dropped node")
			}
			sp.Cols[idx] = nc
			idx++
		}
	}
	return sp
}

// expandScalarSparsity expands a node-block pattern to the scalar AIJ
// pattern: every block row becomes nd identical-pattern scalar rows,
// every block column nd consecutive scalar columns — the block-regular
// layout aijSlot expects.
func expandScalarSparsity(b *la.Sparsity, nd int) *la.Sparsity {
	nr := b.NRows * nd
	sp := &la.Sparsity{NRows: nr, Indptr: make([]int32, nr+1)}
	for r := 0; r < b.NRows; r++ {
		bl := int32(b.RowLen(r) * nd)
		for di := 0; di < nd; di++ {
			sp.Indptr[r*nd+di+1] = sp.Indptr[r*nd+di] + bl
		}
	}
	sp.Cols = make([]int32, sp.Indptr[nr])
	idx := 0
	for r := 0; r < b.NRows; r++ {
		for di := 0; di < nd; di++ {
			for k := b.Indptr[r]; k < b.Indptr[r+1]; k++ {
				c := b.Cols[k] * int32(nd)
				for dj := 0; dj < nd; dj++ {
					sp.Cols[idx] = c + int32(dj)
					idx++
				}
			}
		}
	}
	return sp
}

// patchPlan builds one assembly plan (scalar: AIJ addressing) against the
// sparsity sp, reusing the old plan op's resolved slots wherever it can:
// an entry of a clean element whose row node is clean keeps its offset
// within the row (the row's columns remapped positionally), so its new
// slot is two index-pointer reads — no binary search. Entries of dirty
// elements or into dirty rows — every entry when op is nil — resolve
// against the pattern by search, and the off-process routing is rebuilt
// (it is surface-sized): every sender ships the (row, col) keys of its
// rank-major off-process entries once, by NBX, and every owner resolves
// them into its receive plans. A patched plan is therefore identical to
// the one built from scratch on the new mesh: same traversal, same slots
// (the patterns are equal), same rank-major off-process order and the
// same receive slots. Collective when the communicator has more than one
// rank.
func (a *Assembler) patchPlan(op *AssemblyPlan, d *mesh.Delta, oldOf []int32, sp *la.Sparsity, scalar bool) *AssemblyPlan {
	m := a.M
	nd := a.Ndof
	cpe := m.CornersPerElem()
	me := int32(m.Comm.Rank())
	nE := m.NumElems()
	plan := &AssemblyPlan{ndof: nd, scalar: scalar, sp: sp}

	plan.elemOff = make([]int32, nE+1)
	total := 0
	for e := 0; e < nE; e++ {
		for ca := 0; ca < cpe; ca++ {
			na := int(m.Conn[e*cpe+ca].N)
			for cb := 0; cb < cpe; cb++ {
				total += na * int(m.Conn[e*cpe+cb].N)
			}
		}
		plan.elemOff[e+1] = int32(total)
	}
	plan.entries = make([]planEntry, total)

	// Off-process entries in traversal order: entry index, row and
	// column node.
	type offTmp struct{ entry, row, col int32 }
	var offs []offTmp
	rankCount := make([]int, m.Comm.Size())
	idx := 0
	for e := 0; e < nE; e++ {
		clean := op != nil && d.OldElem[e] >= 0
		var oldIdx int32
		if clean {
			oldIdx = op.elemOff[d.OldElem[e]]
		}
		for ca := 0; ca < cpe; ca++ {
			conA := &m.Conn[e*cpe+ca]
			for cb := 0; cb < cpe; cb++ {
				conB := &m.Conn[e*cpe+cb]
				for i := 0; i < int(conA.N); i++ {
					rowNode := int(conA.Idx[i])
					for j := 0; j < int(conB.N); j++ {
						colNode := int(conB.Idx[j])
						ent := &plan.entries[idx]
						switch {
						case m.Owner[rowNode] != me:
							rankCount[m.Owner[rowNode]]++
							offs = append(offs, offTmp{entry: int32(idx), row: int32(rowNode), col: int32(colNode)})
						case clean && !d.DirtyNode[rowNode]:
							// Clean row of a clean element: the old entry
							// at the same traversal position resolved the
							// same (row, col); carry its offset within the
							// row over to the patched pattern.
							oslot := op.entries[oldIdx].slot
							if oslot < 0 {
								panic("fem: clean patched entry was off-process in the old plan")
							}
							if plan.scalar {
								ent.slot = sp.Indptr[rowNode*nd] + (oslot - op.sp.Indptr[int(oldOf[rowNode])*nd])
							} else {
								ent.slot = sp.Indptr[rowNode] + (oslot - op.sp.Indptr[oldOf[rowNode]])
							}
						case plan.scalar:
							base, _ := aijSlot(sp, rowNode, colNode, nd)
							ent.slot = int32(base)
						default:
							s := sp.FindSlot(rowNode, colNode)
							if s < 0 {
								panic(fmt.Sprintf("fem: plan block (%d,%d) missing from the sparsity", rowNode, colNode))
							}
							ent.slot = int32(s)
						}
						idx++
						if clean {
							oldIdx++
						}
					}
				}
			}
		}
	}

	// Rank-major off-process order: each destination's entries in
	// traversal order, destinations ascending.
	rankStart := make([]int, len(rankCount))
	totalOff := 0
	for r, n := range rankCount {
		rankStart[r] = totalOff
		totalOff += n
		if n > 0 {
			plan.offDests = append(plan.offDests, r)
		}
	}
	bs2 := nd * nd
	plan.offStore = make([]float64, totalOff*bs2)
	keys := make([]nodePair, totalOff)
	fill := append([]int(nil), rankStart...)
	for _, o := range offs {
		r := m.Owner[o.row]
		flat := fill[r]
		fill[r]++
		keys[flat] = nodePair{m.Keys[o.row], m.Keys[o.col]}
		plan.entries[o.entry].slot = ^int32(flat)
	}
	plan.offBufs = make([][]float64, len(plan.offDests))
	keyBufs := make([][]nodePair, len(plan.offDests))
	for i, r := range plan.offDests {
		lo, hi := rankStart[r], rankStart[r]+rankCount[r]
		plan.offBufs[i] = plan.offStore[lo*bs2 : hi*bs2]
		keyBufs[i] = keys[lo:hi]
	}
	if c := m.Comm; c.Size() > 1 {
		srcs, recvd := par.NBXExchange(c, plan.offDests, keyBufs)
		plan.recv = make([]recvPlan, len(srcs))
		for k, bi := range srcOrder(srcs) {
			plan.recv[k] = a.resolveRecv(plan, srcs[bi], recvd[bi])
		}
	}
	return plan
}
