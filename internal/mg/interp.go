// Package mg implements an octree geometric multigrid V-cycle as a
// drop-in la.PC: a hierarchy of coarsened 2:1-balanced forests, per-level
// operators assembled with the frozen-sparsity fem machinery, inter-level
// transfers through the hanging-node-constrained FE interpolation, and
// rank-block ILU(0) smoothing. See PCGMG.
package mg

import (
	"fmt"
	"sort"

	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// Transfer message tags: distinct from the mesh ghost-exchange tags
// (101/102) so a V-cycle level exchange can never collide with the ghost
// machinery of the meshes it runs between.
const (
	tagEval     = 111 // answerer -> requester: evaluated point values
	tagRestrict = 112 // requester -> answerer: target values to scatter
)

// evalPeer is one remote rank involved in a Transfer. On the requester
// side targets lists the target-point indices that rank answers for; on
// the answerer side elems/pts list the local source elements and the grid
// points to evaluate, in the requester's order. buf is the reusable wire
// buffer, grown once to the largest ndof seen.
type evalPeer struct {
	rank    int
	targets []int32
	elems   []int32
	pts     []mesh.NodeKey
	buf     []float64
}

// Transfer evaluates a FE field living on a source mesh at a fixed set of
// target grid points (in practice: the owned nodes of another mesh in the
// hierarchy). Eval is the interpolation P (prolongation / coefficient
// injection); Restrict applies its exact transpose Pᵀ (residual
// restriction). The point-to-element routing is resolved once at build
// time — Eval/Restrict perform no matching, only dense evaluation plus a
// fixed message pattern, and allocate nothing on the warm path at one
// rank (point-to-point receives allocate, like the ghost exchange).
//
// Determinism: every per-rank loop is serial and in fixed order, remote
// contributions are combined in ascending source-rank order, and the
// trailing ghost combine uses the mesh's deterministic GhostWrite — so
// results are bitwise reproducible.
type Transfer struct {
	src *mesh.Mesh
	// Locally answerable targets: target index, containing source element,
	// and the point itself.
	locTgt  []int32
	locElem []int32
	locPt   []mesh.NodeKey
	// req: peers answering our target queries; ans: peers whose queries we
	// answer. Both sorted by ascending rank.
	req []evalPeer
	ans []evalPeer
	// ansParked parks out-of-order Restrict receives so scatter always
	// happens in ascending source-rank order.
	ansParked [][]float64
}

// NewTransfer resolves every target grid point to its containing source
// element, locally or on the owning remote rank. Ownership follows the
// mesh's canonical-owner rule (clamp boundary coordinates inward, locate
// at MaxLevel), so a target node of any mesh covering the same domain is
// always found. Collective.
func NewTransfer(src *mesh.Mesh, tgt []mesh.NodeKey) *Transfer {
	t := &Transfer{src: src}
	c := src.Comm
	spl := octree.GatherSplitters(c, src.Elems)
	tree := &octree.Tree{Dim: src.Dim, Leaves: src.Elems}
	me := c.Rank()

	locate := func(p mesh.NodeKey) int {
		x, y, z := clampInward(p, src.Dim)
		e := tree.PointLocate(x, y, z)
		if e < 0 {
			panic(fmt.Sprintf("mg: point (%d,%d,%d) not in local source forest", p.X, p.Y, p.Z))
		}
		return e
	}
	byRank := map[int][]mesh.NodeKey{}
	tgtByRank := map[int][]int32{}
	for i, p := range tgt {
		x, y, z := clampInward(p, src.Dim)
		q := sfc.Octant{X: x, Y: y, Z: z, Level: sfc.MaxLevel, Dim: uint8(src.Dim)}
		owner := spl.Owner(q)
		if owner == me {
			t.locTgt = append(t.locTgt, int32(i))
			t.locElem = append(t.locElem, int32(locate(p)))
			t.locPt = append(t.locPt, p)
			continue
		}
		byRank[owner] = append(byRank[owner], p)
		tgtByRank[owner] = append(tgtByRank[owner], int32(i))
	}
	dests := make([]int, 0, len(byRank))
	for r := range byRank {
		dests = append(dests, r)
	}
	sort.Ints(dests)
	bufs := make([][]mesh.NodeKey, len(dests))
	for i, r := range dests {
		bufs[i] = byRank[r]
		t.req = append(t.req, evalPeer{rank: r, targets: tgtByRank[r]})
	}
	srcs, recvd := par.NBXExchange(c, dests, bufs)
	for i, r := range srcs {
		p := evalPeer{rank: r, pts: recvd[i]}
		p.elems = make([]int32, len(p.pts))
		for k, pt := range p.pts {
			p.elems[k] = int32(locate(pt))
		}
		t.ans = append(t.ans, p)
	}
	sort.Slice(t.ans, func(i, j int) bool { return t.ans[i].rank < t.ans[j].rank })
	t.ansParked = make([][]float64, len(t.ans))
	return t
}

// patchTransfer re-keys a Transfer in place onto a patched version of its
// source mesh. Valid only when the target list is unchanged and the source
// partition's splitters did not move (every mesh.Patch round): then each
// target's owning rank is unchanged, so the local/remote routing, target
// points, message pattern and wire buffers all stay — only the
// containing-element references move. References whose element survived the
// patch (remap: old element -> new, -1 gone) are carried positionally; the
// rest re-locate in the new forest. A surviving octant still contains the
// same points and leaf containment is unique, so the patched transfer is
// bitwise identical to NewTransfer(src, <same targets>). Returns the
// carried vs re-located entry counts.
func patchTransfer(t *Transfer, src *mesh.Mesh, remap []int32) (patched, resolved int) {
	t.src = src
	tree := &octree.Tree{Dim: src.Dim, Leaves: src.Elems}
	fix := func(elems []int32, pts []mesh.NodeKey) {
		for i, oe := range elems {
			ne := int32(-1)
			if int(oe) < len(remap) {
				ne = remap[oe]
			}
			if ne >= 0 {
				patched++
			} else {
				p := pts[i]
				x, y, z := clampInward(p, src.Dim)
				e := tree.PointLocate(x, y, z)
				if e < 0 {
					panic(fmt.Sprintf("mg: point (%d,%d,%d) not in local source forest", p.X, p.Y, p.Z))
				}
				ne = int32(e)
				resolved++
			}
			elems[i] = ne
		}
	}
	fix(t.locElem, t.locPt)
	for i := range t.ans {
		fix(t.ans[i].elems, t.ans[i].pts)
	}
	return patched, resolved
}

// clampInward maps a grid point to the cell-interior coordinates used for
// ownership and location, mirroring the mesh builder's canonical-owner
// rule: coordinates on the domain's far faces belong to the cell just
// inside.
func clampInward(p mesh.NodeKey, dim int) (x, y, z uint32) {
	x, y, z = p.X, p.Y, p.Z
	if x >= sfc.MaxCoord {
		x = sfc.MaxCoord - 1
	}
	if y >= sfc.MaxCoord {
		y = sfc.MaxCoord - 1
	}
	if dim == 3 && z >= sfc.MaxCoord {
		z = sfc.MaxCoord - 1
	}
	return
}

// evalPoint interpolates ndof values at grid point p inside source
// element e, routing corner values through the hanging-node constraints.
func (t *Transfer) evalPoint(src []float64, ndof int, p mesh.NodeKey, e int, out []float64) {
	m := t.src
	o := m.Elems[e]
	s := float64(o.Side())
	fx := (float64(p.X) - float64(o.X)) / s
	fy := (float64(p.Y) - float64(o.Y)) / s
	fz := 0.0
	if m.Dim == 3 {
		fz = (float64(p.Z) - float64(o.Z)) / s
	}
	cpe := m.CornersPerElem()
	for d := 0; d < ndof; d++ {
		out[d] = 0
	}
	for ci := 0; ci < cpe; ci++ {
		w := cornerWeight(fx, ci&1) * cornerWeight(fy, ci&2)
		if m.Dim == 3 {
			w *= cornerWeight(fz, ci&4)
		}
		if w == 0 {
			continue
		}
		idx, cw := m.Corner(e, ci)
		for k, i := range idx {
			wk := w * cw[k]
			base := int(i) * ndof
			for d := 0; d < ndof; d++ {
				out[d] += wk * src[base+d]
			}
		}
	}
}

// scatterPoint adds the transposed interpolation: val (ndof entries) at
// point p spreads to the corners of element e with the same weights
// evalPoint reads with, through the transposed constraints.
func (t *Transfer) scatterPoint(val []float64, ndof int, p mesh.NodeKey, e int, dst []float64) {
	m := t.src
	o := m.Elems[e]
	s := float64(o.Side())
	fx := (float64(p.X) - float64(o.X)) / s
	fy := (float64(p.Y) - float64(o.Y)) / s
	fz := 0.0
	if m.Dim == 3 {
		fz = (float64(p.Z) - float64(o.Z)) / s
	}
	cpe := m.CornersPerElem()
	for ci := 0; ci < cpe; ci++ {
		w := cornerWeight(fx, ci&1) * cornerWeight(fy, ci&2)
		if m.Dim == 3 {
			w *= cornerWeight(fz, ci&4)
		}
		if w == 0 {
			continue
		}
		idx, cw := m.Corner(e, ci)
		for k, i := range idx {
			wk := w * cw[k]
			base := int(i) * ndof
			for d := 0; d < ndof; d++ {
				dst[base+d] += wk * val[d]
			}
		}
	}
}

func cornerWeight(f float64, bit int) float64 {
	if bit != 0 {
		return f
	}
	return 1 - f
}

// Eval evaluates the source field (ndof dofs per node, full local source
// vector) at every target point: dst[tgt*ndof+d] is overwritten. When
// ghosted is false the source ghost segment is refreshed first.
// Collective; deterministic.
func (t *Transfer) Eval(src []float64, ndof int, dst []float64, ghosted bool) {
	m := t.src
	c := m.Comm
	if !ghosted {
		m.GhostRead(src, ndof)
	}
	// Answer remote queries first so requesters never wait on local work.
	for i := range t.ans {
		p := &t.ans[i]
		buf := growBuf(&p.buf, len(p.elems)*ndof)
		for k := range p.elems {
			t.evalPoint(src, ndof, p.pts[k], int(p.elems[k]), buf[k*ndof:(k+1)*ndof])
		}
		par.SendSlice(c, p.rank, tagEval, buf)
	}
	for k := range t.locTgt {
		base := int(t.locTgt[k]) * ndof
		t.evalPoint(src, ndof, t.locPt[k], int(t.locElem[k]), dst[base:base+ndof])
	}
	for range t.req {
		buf, from := par.RecvSlice[float64](c, par.AnySource, tagEval)
		p := t.reqPeer(from)
		for k, ti := range p.targets {
			copy(dst[int(ti)*ndof:int(ti)*ndof+ndof], buf[k*ndof:(k+1)*ndof])
		}
	}
	if c.Size() > 1 {
		// Answer buffers are reused next call; the barrier guarantees every
		// send has been consumed.
		c.Barrier()
	}
}

// Restrict applies the exact transpose of Eval: dst (a full local source
// vector, zeroed here) accumulates Σ_i w_ij r[i] over all target points
// i, then combines ghost-slot contributions into their owners. r needs
// only its owned-target prefix. Collective; contributions are applied in
// a fixed order (local first, then peers by ascending rank, then the
// deterministic GhostWrite), so the result is bitwise reproducible.
func (t *Transfer) Restrict(r []float64, ndof int, dst []float64) {
	m := t.src
	c := m.Comm
	for i := range dst {
		dst[i] = 0
	}
	// Ship our target values to the ranks owning their containing elements.
	for i := range t.req {
		p := &t.req[i]
		buf := growBuf(&p.buf, len(p.targets)*ndof)
		for k, ti := range p.targets {
			copy(buf[k*ndof:(k+1)*ndof], r[int(ti)*ndof:int(ti)*ndof+ndof])
		}
		par.SendSlice(c, p.rank, tagRestrict, buf)
	}
	for k := range t.locTgt {
		base := int(t.locTgt[k]) * ndof
		t.scatterPoint(r[base:base+ndof], ndof, t.locPt[k], int(t.locElem[k]), dst)
	}
	if len(t.ans) > 0 {
		// Park receives, then scatter in ascending source-rank order so the
		// floating-point accumulation order is schedule-independent.
		for range t.ans {
			buf, from := par.RecvSlice[float64](c, par.AnySource, tagRestrict)
			t.ansParked[t.ansIdx(from)] = buf
		}
		for i := range t.ans {
			p := &t.ans[i]
			buf := t.ansParked[i]
			t.ansParked[i] = nil
			for k := range p.elems {
				t.scatterPoint(buf[k*ndof:(k+1)*ndof], ndof, p.pts[k], int(p.elems[k]), dst)
			}
		}
	}
	// The combining exchange also orders cross-rank contributions by
	// source rank and ends in a barrier, which doubles as the send fence
	// for the Restrict buffers above.
	m.GhostWrite(dst, ndof, mesh.Add, 0)
}

func (t *Transfer) reqPeer(rank int) *evalPeer {
	for i := range t.req {
		if t.req[i].rank == rank {
			return &t.req[i]
		}
	}
	panic(fmt.Sprintf("mg: unexpected eval answer from rank %d", rank))
}

func (t *Transfer) ansIdx(rank int) int {
	for i := range t.ans {
		if t.ans[i].rank == rank {
			return i
		}
	}
	panic(fmt.Sprintf("mg: unexpected restrict payload from rank %d", rank))
}

func growBuf(b *[]float64, n int) []float64 {
	if cap(*b) < n {
		*b = make([]float64, n)
	}
	return (*b)[:n]
}
