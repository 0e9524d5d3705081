// Package transfer implements distributed multi-level inter-grid transfer
// (Saurabh et al. IPDPS 2023, Sec. II-C2): after a remesh changes element
// levels by arbitrarily many levels in one step, nodal fields move from
// the old grid to the new one in a single pass, with no intermediate
// one-level grids.
//
// Coarse-to-fine transfer evaluates the old element's linear field at each
// new node; fine-to-coarse transfer injects (samples) the old field at the
// coarse node locations — both reduce to "evaluate the old field at a
// point", so a single key-addressed evaluation service implements the
// whole transfer. Distributed operation follows the paper's four steps:
// locate the owner of each query point in the old grid's splitter table,
// ship the detached node keys, evaluate locally, and return the values to
// the requesting rank (NBX sparse exchanges both ways). Batch moves every
// field of a remesh through one such round. MigrateKeyedNodal and
// MigrateElem (migrate.go) move values exactly, with no interpolation at
// all, wherever the forest is the same: a partition-only round
// (MigrateNodal is the keyed delivery of an old mesh's owned nodes) and a
// saved state put back after a rollback, a checkpoint fallback or a
// restart.
package transfer

import (
	"fmt"

	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// Field names one nodal field in a transfer: Src lives on the old mesh,
// Dst on the new mesh (full local layout, NumLocal*Ndof entries each).
// MigrateKeyedNodal reads Src as owned records instead, Ndof values per
// key.
type Field struct {
	Src, Dst []float64
	Ndof     int
}

// Workspace holds the reusable buffers of Batch so steady remeshing stops
// allocating per-field query maps and scratch. A zero Workspace is ready
// to use; keep one per simulation and pass it to every Batch call. Send
// buffers are safely reused across calls: every peer has consumed the
// previous call's payloads before it can enter the next call's exchange.
type Workspace struct {
	pos    map[int]int
	dests  []int
	keys   [][]mesh.NodeKey
	idxs   [][]int32
	rdests []int
	rbufs  [][]float64
	buf    []float64 // corner gather scratch (cpe * max ndof)
}

func (ws *Workspace) reset(bufLen int) {
	if ws.pos == nil {
		ws.pos = map[int]int{}
	}
	clear(ws.pos)
	ws.dests = ws.dests[:0]
	if cap(ws.buf) < bufLen {
		ws.buf = make([]float64, bufLen)
	}
	ws.buf = ws.buf[:bufLen]
}

// addQuery appends node i's key to the query batch for rank r.
func (ws *Workspace) addQuery(r int, k mesh.NodeKey, i int) {
	s, ok := ws.pos[r]
	if !ok {
		s = len(ws.dests)
		ws.pos[r] = s
		ws.dests = append(ws.dests, r)
		if len(ws.keys) <= s {
			ws.keys = append(ws.keys, nil)
			ws.idxs = append(ws.idxs, nil)
		}
		ws.keys[s] = ws.keys[s][:0]
		ws.idxs[s] = ws.idxs[s][:0]
	}
	ws.keys[s] = append(ws.keys[s], k)
	ws.idxs[s] = append(ws.idxs[s], int32(i))
}

// Batch transfers every field from oldM to newM in one pass: one splitter
// gather, one point location per new owned node (all fields evaluated at
// the located point), and one NBX query/reply round carrying all fields'
// dofs packed together. ws may be nil (a transient workspace is used).
// Collective.
//
// A query point whose old-grid owner is this rank but which no local old
// element contains is a partition/forest inconsistency: Batch fails
// loudly with the offending key instead of shipping the query through a
// self-exchange.
func Batch(oldM *mesh.Mesh, newM *mesh.Mesh, fields []Field, ws *Workspace) {
	c := oldM.Comm
	if ws == nil {
		ws = &Workspace{}
	}
	tot, maxN := 0, 0
	for _, f := range fields {
		if len(f.Src) < oldM.NumLocal*f.Ndof || len(f.Dst) < newM.NumLocal*f.Ndof {
			panic("transfer: Batch field vector length mismatch")
		}
		tot += f.Ndof
		if f.Ndof > maxN {
			maxN = f.Ndof
		}
	}
	for _, f := range fields {
		oldM.GhostRead(f.Src, f.Ndof)
	}
	oldTree := &octree.Tree{Dim: oldM.Dim, Leaves: oldM.Elems}
	spl := octree.GatherSplitters(c, oldM.Elems)
	ws.reset(oldM.CornersPerElem() * maxN)
	me := c.Rank()

	// One point-location pass over the owned new nodes; remote queries are
	// batched per old-grid owner.
	for i := 0; i < newM.NumOwned; i++ {
		k := newM.Keys[i]
		if e, xi, ok := locate(oldM, oldTree, k); ok {
			for _, f := range fields {
				evalInto(oldM, e, xi, f.Src, f.Ndof, f.Dst[i*f.Ndof:(i+1)*f.Ndof], ws.buf)
			}
			continue
		}
		r := ownerOfKey(spl, oldM.Dim, k)
		if r == me {
			panic(fmt.Sprintf("transfer: rank %d owns the old-grid region of node %v but no local element contains it", me, k))
		}
		ws.addQuery(r, k, i)
	}
	if c.Size() > 1 {
		srcs, recvd := par.NBXExchange(c, ws.dests, ws.keys[:len(ws.dests)])
		// Evaluate remote queries — all fields per located point — and
		// reply with the packed values.
		ws.rdests = ws.rdests[:0]
		ws.rbufs = ws.rbufs[:0]
		for bi, batch := range recvd {
			vals := make([]float64, len(batch)*tot)
			for qi, k := range batch {
				e, xi, ok := locate(oldM, oldTree, k)
				if !ok {
					panic(fmt.Sprintf("transfer: rank %d cannot evaluate %v for rank %d", me, k, srcs[bi]))
				}
				off := qi * tot
				for _, f := range fields {
					evalInto(oldM, e, xi, f.Src, f.Ndof, vals[off:off+f.Ndof], ws.buf)
					off += f.Ndof
				}
			}
			ws.rdests = append(ws.rdests, srcs[bi])
			ws.rbufs = append(ws.rbufs, vals)
		}
		rsrcs, replies := par.NBXExchange(c, ws.rdests, ws.rbufs)
		for bi, src := range rsrcs {
			idxs := ws.idxs[ws.pos[src]]
			vals := replies[bi]
			if len(vals) != len(idxs)*tot {
				panic("transfer: reply length mismatch")
			}
			for qi, li := range idxs {
				off := qi * tot
				for _, f := range fields {
					copy(f.Dst[int(li)*f.Ndof:(int(li)+1)*f.Ndof], vals[off:off+f.Ndof])
					off += f.Ndof
				}
			}
		}
	} else if len(ws.dests) > 0 {
		panic(fmt.Sprintf("transfer: unevaluable node %v on single rank", ws.keys[0][0]))
	}
	for _, f := range fields {
		newM.GhostRead(f.Dst, f.Ndof)
	}
}

// locate finds the local old element containing grid point k (with
// boundary clamping) and k's unit-cell coordinates within it.
func locate(m *mesh.Mesh, tree *octree.Tree, k mesh.NodeKey) (int, [3]float64, bool) {
	var xi [3]float64
	x, y, z := clampKey(m.Dim, k)
	e := tree.PointLocate(x, y, z)
	if e < 0 {
		return -1, xi, false
	}
	o := m.Elems[e]
	s := float64(o.Side())
	xi[0] = (float64(k.X) - float64(o.X)) / s
	xi[1] = (float64(k.Y) - float64(o.Y)) / s
	if m.Dim == 3 {
		xi[2] = (float64(k.Z) - float64(o.Z)) / s
	}
	return e, xi, true
}

// evalInto evaluates the ndof-dof field src at unit-cell point xi of
// element e (multilinear interpolation from the element corners) into dst.
// buf must hold CornersPerElem*ndof entries.
func evalInto(m *mesh.Mesh, e int, xi [3]float64, src []float64, ndof int, dst, buf []float64) {
	npe := m.CornersPerElem()
	m.GatherElem(e, src, ndof, buf[:npe*ndof])
	for d := 0; d < ndof; d++ {
		var v float64
		for a := 0; a < npe; a++ {
			w := 1.0
			for dim := 0; dim < m.Dim; dim++ {
				if (a>>dim)&1 == 1 {
					w *= xi[dim]
				} else {
					w *= 1 - xi[dim]
				}
			}
			v += w * buf[a*ndof+d]
		}
		dst[d] = v
	}
}

func clampKey(dim int, k mesh.NodeKey) (x, y, z uint32) {
	x, y, z = k.X, k.Y, k.Z
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

func ownerOfKey(spl octree.Splitters, dim int, k mesh.NodeKey) int {
	x, y, z := clampKey(dim, k)
	q := sfc.Octant{X: x, Y: y, Z: z, Level: sfc.MaxLevel, Dim: uint8(dim)}
	return spl.Owner(q)
}

// CellCentered transfers per-element values from the old distributed
// forest to the new one: a new element contained in an old element copies
// its value; a new element covering several old elements takes their
// volume-weighted average. Collective.
func CellCentered(c *par.Comm, dim int, oldElems []sfc.Octant, oldVals []float64, newElems []sfc.Octant) []float64 {
	spl := octree.GatherSplitters(c, oldElems)
	oldTree := &octree.Tree{Dim: dim, Leaves: oldElems}
	out := make([]float64, len(newElems))

	type query struct {
		Oct sfc.Octant
	}
	perRank := map[int][]query{}
	perRankIdx := map[int][]int{}
	acc := make([]float64, len(newElems)) // accumulated weighted values
	wgt := make([]float64, len(newElems))

	// accumulate adds old-elements overlapping q into (val, weight).
	accumulate := func(q sfc.Octant) (float64, float64, bool) {
		lo, hi := oldTree.OverlapRange(q)
		if lo >= hi {
			return 0, 0, false
		}
		var v, w float64
		for i := lo; i < hi; i++ {
			o := oldTree.Leaves[i]
			// Weight by the overlap volume fraction.
			side := o.Side()
			if side > q.Side() {
				side = q.Side()
			}
			vol := 1.0
			for d := 0; d < dim; d++ {
				vol *= float64(side)
			}
			v += oldVals[i] * vol
			w += vol
		}
		return v, w, true
	}

	for e, q := range newElems {
		// Which ranks hold old elements overlapping q?
		owners := spl.RangeOwners(q)
		local := false
		for _, r := range owners {
			if r == c.Rank() {
				local = true
			}
		}
		if local {
			v, w, ok := accumulate(q)
			if ok {
				acc[e] += v
				wgt[e] += w
			}
		}
		for _, r := range owners {
			if r != c.Rank() {
				perRank[r] = append(perRank[r], query{q})
				perRankIdx[r] = append(perRankIdx[r], e)
			}
		}
	}
	if c.Size() > 1 {
		dests := make([]int, 0, len(perRank))
		bufs := make([][]query, 0, len(perRank))
		for r, qs := range perRank {
			dests = append(dests, r)
			bufs = append(bufs, qs)
		}
		srcs, recvd := par.NBXExchange(c, dests, bufs)
		rdests := make([]int, 0, len(srcs))
		rbufs := make([][]float64, 0, len(srcs))
		for i, batch := range recvd {
			vals := make([]float64, 2*len(batch))
			for qi, qu := range batch {
				v, w, _ := accumulate(qu.Oct)
				vals[2*qi] = v
				vals[2*qi+1] = w
			}
			rdests = append(rdests, srcs[i])
			rbufs = append(rbufs, vals)
		}
		rsrcs, replies := par.NBXExchange(c, rdests, rbufs)
		for i, src := range rsrcs {
			idxs := perRankIdx[src]
			vals := replies[i]
			for qi, e := range idxs {
				acc[e] += vals[2*qi]
				wgt[e] += vals[2*qi+1]
			}
		}
	}
	for e := range out {
		if wgt[e] > 0 {
			out[e] = acc[e] / wgt[e]
		}
	}
	return out
}
