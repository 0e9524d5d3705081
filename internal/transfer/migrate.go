// Exact migration: when an adaptation round leaves the global forest
// unchanged and only moves the SFC partition (a pure load rebalance), or
// a saved state is put back onto a mesh of its own forest, fields need no
// inter-grid interpolation at all — every node and element value is
// copied bitwise from its holder to its owner. This keeps results bitwise
// reproducible across rank counts and skips the old-tree rebuild and
// point-location machinery entirely. Nodal values move through one keyed
// delivery (MigrateKeyedNodal), element values through MigrateElem.
package transfer

import (
	"fmt"

	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// maxMigrateDofs bounds the combined per-node dof count of one keyed
// migration: keys and values travel together in one fixed-size packet so
// the whole migration is a single NBX round.
const maxMigrateDofs = 8

// nodePacket carries one node's key and its packed field values.
type nodePacket struct {
	Key mesh.NodeKey
	V   [maxMigrateDofs]float64
}

// MigrateNodal moves nodal fields from oldM to newM when both meshes are
// built over the same global forest and only ownership moved: it is
// MigrateKeyedNodal of oldM's owned nodes, so every owned value goes to
// its node's owner under newM's recorded ownership table (for a migrated
// old-mesh view that table is the new partition's, which an
// element-derived gather would not reproduce) in one NBX round. No point
// location, no interpolation — destination values are bitwise copies.
// Panics if the meshes turn out not to share a forest, so a mistaken
// partition-only detection fails loudly instead of corrupting fields.
// Collective.
func MigrateNodal(oldM, newM *mesh.Mesh, fields []Field) {
	owned := make([]Field, len(fields))
	for i, f := range fields {
		owned[i] = Field{Src: f.Src[:oldM.NumOwned*f.Ndof], Dst: f.Dst, Ndof: f.Ndof}
	}
	MigrateKeyedNodal(newM, oldM.Keys[:oldM.NumOwned], owned)
}

// MigrateKeyedNodal delivers node records — owned-node keys with one
// value array per field, Field.Src holding len(keys)·Ndof values in key
// order — to their canonical owners under newM's partition in one NBX
// round, then refreshes the destination ghosts. The records may be
// distributed across ranks in any way (each global node exactly once):
// an old mesh's owned segment, or a snapshot read back from memory or
// disk. Destination values are bitwise copies. Panics if a key is
// unknown to its target, delivered twice, or an owned destination node
// is left unfilled on any rank, so records from the wrong forest fail
// loudly instead of corrupting fields. Collective.
func MigrateKeyedNodal(newM *mesh.Mesh, keys []mesh.NodeKey, fields []Field) {
	c := newM.Comm
	tot := 0
	for _, f := range fields {
		if len(f.Src) != len(keys)*f.Ndof || len(f.Dst) < newM.NumLocal*f.Ndof {
			panic(fmt.Sprintf("transfer: MigrateKeyedNodal field lengths %d/%d for %d keys and %d owned nodes at %d dofs",
				len(f.Src), len(f.Dst), len(keys), newM.NumLocal, f.Ndof))
		}
		tot += f.Ndof
	}
	if tot > maxMigrateDofs {
		panic(fmt.Sprintf("transfer: MigrateKeyedNodal moves %d dofs per node, max %d", tot, maxMigrateDofs))
	}
	spl, ok := newM.OwnershipTable()
	if !ok {
		spl = octree.GatherSplitters(c, newM.Elems)
	}
	me := c.Rank()
	// Per-node fill tracking (not a count): a duplicate record must not
	// mask a missing one, or an owned node would silently stay zero.
	seen := make([]bool, newM.NumOwned)
	filled := 0
	deliver := func(k mesh.NodeKey, vals []float64) {
		j, ok := newM.NodeIndex(k)
		if !ok || j >= newM.NumOwned {
			panic(fmt.Sprintf("transfer: keyed node %v not owned on its target rank %d", k, me))
		}
		if seen[j] {
			panic(fmt.Sprintf("transfer: keyed node %v delivered twice — records are not a partition of the forest", k))
		}
		seen[j] = true
		filled++
		off := 0
		for _, f := range fields {
			copy(f.Dst[j*f.Ndof:(j+1)*f.Ndof], vals[off:off+f.Ndof])
			off += f.Ndof
		}
	}
	perRank := map[int][]nodePacket{}
	var p nodePacket
	for i, k := range keys {
		p.Key = k
		off := 0
		for _, f := range fields {
			copy(p.V[off:off+f.Ndof], f.Src[i*f.Ndof:(i+1)*f.Ndof])
			off += f.Ndof
		}
		if r := ownerOfKey(spl, newM.Dim, k); r != me {
			perRank[r] = append(perRank[r], p)
		} else {
			deliver(k, p.V[:tot])
		}
	}
	if c.Size() > 1 {
		dests := make([]int, 0, len(perRank))
		bufs := make([][]nodePacket, 0, len(perRank))
		for r, lst := range perRank {
			dests = append(dests, r)
			bufs = append(bufs, lst)
		}
		_, recvd := par.NBXExchange(c, dests, bufs)
		for _, batch := range recvd {
			for i := range batch {
				deliver(batch[i].Key, batch[i].V[:tot])
			}
		}
	} else if len(perRank) > 0 {
		panic("transfer: MigrateKeyedNodal routed nodes off a single rank")
	}
	if got := par.Allreduce(c, filled == newM.NumOwned, func(a, b bool) bool { return a && b }); !got {
		panic(fmt.Sprintf("transfer: keyed migration filled %d of %d owned nodes — records do not cover the forest", filled, newM.NumOwned))
	}
	for _, f := range fields {
		newM.GhostRead(f.Dst, f.Ndof)
	}
}

// elemPacket carries one element's octant key and value; the key is
// verified on the receiver against its local leaf list.
type elemPacket struct {
	Oct sfc.Octant
	V   float64
}

// MigrateElem moves per-element values across a pure repartition of the
// same global forest: each rank ships its contiguous SFC ranges to their
// new owners and the receiver reassembles the batches in source-rank
// order, which for an identical forest is global SFC order. The octant
// keys travel with the values and are checked element-by-element against
// the new local leaves, so a mistaken partition-only detection panics
// instead of silently misaligning values. Collective.
func MigrateElem(c *par.Comm, oldElems []sfc.Octant, oldVals []float64, newElems []sfc.Octant) []float64 {
	spl := octree.GatherSplitters(c, newElems)
	me := c.Rank()
	perRank := map[int][]elemPacket{}
	var own []elemPacket
	for i, o := range oldElems {
		r := spl.Owner(o.FirstDescendant())
		if r == me {
			own = append(own, elemPacket{o, oldVals[i]})
			continue
		}
		perRank[r] = append(perRank[r], elemPacket{o, oldVals[i]})
	}
	type sourced struct {
		src   int
		batch []elemPacket
	}
	batches := []sourced{{me, own}}
	if c.Size() > 1 {
		dests := make([]int, 0, len(perRank))
		bufs := make([][]elemPacket, 0, len(perRank))
		for r, lst := range perRank {
			dests = append(dests, r)
			bufs = append(bufs, lst)
		}
		srcs, recvd := par.NBXExchange(c, dests, bufs)
		for i := range srcs {
			batches = append(batches, sourced{srcs[i], recvd[i]})
		}
	} else if len(perRank) > 0 {
		panic("transfer: MigrateElem routed elements off a single rank")
	}
	// Lower source ranks hold strictly earlier SFC ranges of the shared
	// forest, so source-rank order reassembles the local leaf sequence.
	for i := 1; i < len(batches); i++ {
		for j := i; j > 0 && batches[j].src < batches[j-1].src; j-- {
			batches[j], batches[j-1] = batches[j-1], batches[j]
		}
	}
	out := make([]float64, len(newElems))
	pos := 0
	for _, b := range batches {
		for _, p := range b.batch {
			if pos >= len(newElems) || !p.Oct.EqualKey(newElems[pos]) {
				panic(fmt.Sprintf("transfer: partition-only element migration misaligned at %d (%v) — meshes do not share a forest", pos, p.Oct))
			}
			out[pos] = p.V
			pos++
		}
	}
	if pos != len(newElems) {
		panic(fmt.Sprintf("transfer: partition-only element migration filled %d of %d elements", pos, len(newElems)))
	}
	return out
}
