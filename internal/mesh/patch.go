// Incremental mesh construction: Patch rebuilds a distributed CG mesh
// after a small forest change without re-classifying, re-sorting or
// re-interning the untouched bulk. The result is bitwise identical to
// mesh.New on the same forest — Patch exploits that New's numbering is
// canonical (a pure function of the node key set, the splitter table and
// the rank), so it only has to reproduce the exact key set: survivors
// keep their relative order and new keys merge in under the same
// comparator.
package mesh

import (
	"sort"

	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// Delta describes how a patched mesh relates to its predecessor. The fem
// layer uses it to remap frozen sparsity rows and reuse assembly-plan
// slots for elements whose connectivity survived.
type Delta struct {
	// NodeRemap maps old local node indices to new ones, -1 if dropped.
	// Partition-stable patches keep it monotone over survivors; a
	// migrated patch only guarantees order preservation per clean row
	// (any node whose owner moved is dirty together with every node it
	// shares an element with), which is what the plan repair needs: a
	// clean row's remapped column pattern stays sorted.
	NodeRemap []int32
	// OldElem maps each new element index to its old element index when
	// both the octant and its connectivity survived untouched, else -1.
	OldElem []int32
	// DirtyNode flags new local nodes whose matrix row/column structure
	// may differ from the old mesh: new nodes, nodes referenced by dirty
	// or removed elements, and partition-boundary rows (whose patterns
	// include remotely contributed couplings).
	DirtyNode []bool
	// NumDirtyElems counts elements with OldElem < 0 (telemetry).
	NumDirtyElems int
}

// Patch builds the mesh over the local leaves of a globally sorted,
// 2:1-balanced forest that differs from old's forest only in the dirty
// leaves (the local leaves absent from old.Elems, see octree.AddedLeaves).
// Collective. Returns (nil, nil) — consistently on every rank — when the
// partition splitters moved, in which case node ownership is not stable
// and the caller must fall back to New or to PatchMigrated.
func Patch(c *par.Comm, dim int, local []sfc.Octant, old *Mesh, dirty []sfc.Octant) (*Mesh, *Delta) {
	newSpl := octree.GatherSplitters(c, local)
	oldSpl := octree.GatherSplitters(c, old.Elems)
	if !newSpl.Equal(oldSpl) {
		// Both tables are allgathered, so every rank reaches this branch
		// together; no further collectives have run yet.
		return nil, nil
	}
	return patchWith(c, dim, local, old, dirty, newSpl)
}

// patchWith is Patch's body, parameterized on the splitter table spl of
// the new forest (always the table local itself gathers). It requires
// old's node ownership to already agree with spl: either the splitters
// never moved (Patch's gate) or old is a migrated view whose ownership
// was decided from the new partition (PatchMigrated). The returned mesh
// and delta are relative to old.
func patchWith(c *par.Comm, dim int, local []sfc.Octant, old *Mesh, dirty []sfc.Octant, spl octree.Splitters) (*Mesh, *Delta) {
	newSpl := spl
	m := &Mesh{Comm: c, Dim: dim, Elems: local}
	m.ElemLevel = make([]uint8, len(local))
	for i, o := range local {
		m.ElemLevel[i] = o.Level
	}
	b := newBuilder(m)
	b.spl = newSpl
	b.own = newSpl
	m.ownSpl, m.hasOwnSpl = newSpl, true
	cpe := m.CornersPerElem()
	me := c.Rank()
	me32 := int32(me)

	// --- Match surviving elements (two-pointer walk over sorted lists).
	oldElem := make([]int32, len(local))
	oldGone := make([]bool, len(old.Elems)) // removed or reclassified below
	for i := range oldGone {
		oldGone[i] = true
	}
	{
		i := 0
		for e, o := range local {
			for i < len(old.Elems) && sfc.Less(old.Elems[i], o) {
				i++
			}
			if i < len(old.Elems) && old.Elems[i].EqualKey(o) {
				oldElem[e] = int32(i)
				oldGone[i] = false
			} else {
				oldElem[e] = -1
			}
		}
	}

	// --- Exchange dirty octants so every rank knows the changed regions
	// adjacent to it (round A).
	globalDirty := append([]sfc.Octant(nil), dirty...)
	var nbuf [26]sfc.Octant
	if c.Size() > 1 {
		perRank := make(map[int]map[sfc.Octant]bool)
		for _, d := range dirty {
			for _, n := range d.AllNeighbors(nbuf[:0]) {
				for _, r := range newSpl.RangeOwners(n) {
					if r == me {
						continue
					}
					if perRank[r] == nil {
						perRank[r] = make(map[sfc.Octant]bool)
					}
					perRank[r][d] = true
				}
			}
		}
		dests := make([]int, 0, len(perRank))
		bufs := make([][]sfc.Octant, 0, len(perRank))
		for r, set := range perRank {
			lst := make([]sfc.Octant, 0, len(set))
			for o := range set {
				lst = append(lst, o)
			}
			dests = append(dests, r)
			bufs = append(bufs, lst)
		}
		_, recvd := par.NBXExchange(c, dests, bufs)
		for _, batch := range recvd {
			globalDirty = append(globalDirty, batch...)
		}
	}

	// --- Mark affected elements: new octants, plus anything adjacent to a
	// dirty region. Every classification change is driven by a changed
	// leaf touching the element, and coarsened/refined regions are always
	// covered by an added octant, so adjacency to the dirty set is a
	// complete criterion.
	affected := make([]bool, len(local))
	numDirtyElems := 0
	for e := range local {
		if oldElem[e] < 0 {
			affected[e] = true
		}
	}
	ltree := &octree.Tree{Dim: dim, Leaves: local}
	for _, d := range globalDirty {
		mark := func(q sfc.Octant) {
			lo, hi := ltree.OverlapRange(q)
			for j := lo; j < hi; j++ {
				affected[j] = true
			}
		}
		mark(d)
		for _, n := range d.AllNeighbors(nbuf[:0]) {
			mark(n)
		}
	}
	for e := range local {
		if affected[e] {
			numDirtyElems++
			if oldElem[e] >= 0 {
				oldGone[oldElem[e]] = true // connectivity will be rebuilt
			}
		}
	}

	// --- Ghost elements around the affected region only (rounds B and C):
	// ship my affected elements to the owners of their neighbour regions;
	// they reply with their leaves touching them. Together with the
	// incoming affected elements of other ranks this yields every remote
	// leaf touching one of my affected elements — all classify needs.
	var ghosts []sfc.Octant
	if c.Size() > 1 {
		perRank := make(map[int]map[sfc.Octant]bool)
		for e, o := range local {
			if !affected[e] {
				continue
			}
			for _, n := range o.AllNeighbors(nbuf[:0]) {
				for _, r := range newSpl.RangeOwners(n) {
					if r == me {
						continue
					}
					if perRank[r] == nil {
						perRank[r] = make(map[sfc.Octant]bool)
					}
					perRank[r][o] = true
				}
			}
		}
		dests := make([]int, 0, len(perRank))
		bufs := make([][]sfc.Octant, 0, len(perRank))
		for r, set := range perRank {
			lst := make([]sfc.Octant, 0, len(set))
			for o := range set {
				lst = append(lst, o)
			}
			dests = append(dests, r)
			bufs = append(bufs, lst)
		}
		srcs, recvd := par.NBXExchange(c, dests, bufs)
		for _, batch := range recvd {
			ghosts = append(ghosts, batch...)
		}
		// Reply with local leaves touching each received element.
		rdests := make([]int, 0, len(srcs))
		rbufs := make([][]sfc.Octant, 0, len(srcs))
		for i, src := range srcs {
			seen := make(map[int]bool)
			var reply []sfc.Octant
			collect := func(q sfc.Octant) {
				lo, hi := ltree.OverlapRange(q)
				for j := lo; j < hi; j++ {
					if !seen[j] {
						seen[j] = true
						reply = append(reply, local[j])
					}
				}
			}
			for _, o := range recvd[i] {
				collect(o)
				for _, n := range o.AllNeighbors(nbuf[:0]) {
					collect(n)
				}
			}
			if len(reply) > 0 {
				rdests = append(rdests, src)
				rbufs = append(rbufs, reply)
			}
		}
		_, replies := par.NBXExchange(c, rdests, rbufs)
		for _, batch := range replies {
			ghosts = append(ghosts, batch...)
		}
	}
	// combined = local ∪ ghosts, sorted: ghosts are few, so sort them and
	// merge instead of re-sorting the whole element list.
	if len(ghosts) > 0 {
		sfc.Sort(ghosts)
		merged := make([]sfc.Octant, 0, len(local)+len(ghosts))
		i, j := 0, 0
		for i < len(local) || j < len(ghosts) {
			switch {
			case i == len(local):
				merged = append(merged, ghosts[j])
				j++
			case j == len(ghosts):
				merged = append(merged, local[i])
				i++
			case local[i].EqualKey(ghosts[j]):
				j++ // duplicate of a local leaf
			case sfc.Less(local[i], ghosts[j]):
				merged = append(merged, local[i])
				i++
			default:
				merged = append(merged, ghosts[j])
				j++
			}
		}
		// Drop exact ghost duplicates that survived the merge.
		out := merged[:0]
		for k, o := range merged {
			if k > 0 && o.EqualKey(merged[k-1]) {
				continue
			}
			out = append(out, o)
		}
		b.combined = &octree.Tree{Dim: dim, Leaves: out}
	} else {
		b.combined = ltree
	}

	// --- Connectivity. Node references are provisional codes: old local
	// indices for keys the old mesh knows, old.NumLocal+j for new keys.
	oldMark := make([]bool, old.NumLocal)
	var newKeys []NodeKey
	var newOwner []int32
	newIdx := make(map[NodeKey]int32)
	intern := func(k NodeKey) int32 {
		if oi, ok := old.index[k]; ok {
			oldMark[oi] = true
			return oi
		}
		if j, ok := newIdx[k]; ok {
			return int32(old.NumLocal) + j
		}
		j := int32(len(newKeys))
		newIdx[k] = j
		newKeys = append(newKeys, k)
		newOwner = append(newOwner, int32(b.canonicalOwner(k)))
		return int32(old.NumLocal) + j
	}
	t := connTable{conn: make([]int32, 0, len(local)*cpe)}
	for e, o := range local {
		if !affected[e] {
			oe := int(oldElem[e])
			for _, v := range old.conn[oe*cpe : (oe+1)*cpe] {
				if v >= 0 {
					oldMark[v] = true
					t.node(v)
					continue
				}
				con := old.hang[^v]
				for _, i := range con.Idx[:con.N] {
					oldMark[i] = true
				}
				t.hanging(con)
			}
			continue
		}
		for cix := 0; cix < cpe; cix++ {
			p := cornerKey(o, cix)
			hanging, donors, w := b.classify(p)
			if !hanging {
				t.node(intern(p))
				continue
			}
			var con Constraint
			con.N = uint8(len(donors))
			for i, q := range donors {
				con.Idx[i] = intern(q)
				con.W[i] = w
			}
			t.hanging(con)
		}
	}

	// --- Off-process column exchange: a rank assembling a row I own
	// references every node of the contributing element, so each element
	// touching a remotely-owned node ships its full key set to that owner
	// — the same sets mesh.New ships, reproduced here with O(1) owner
	// lookups for clean elements.
	keyOf := func(code int32) NodeKey {
		if code < int32(old.NumLocal) {
			return old.Keys[code]
		}
		return newKeys[code-int32(old.NumLocal)]
	}
	ownerOf := func(code int32) int32 {
		if code < int32(old.NumLocal) {
			return old.Owner[code]
		}
		return newOwner[code-int32(old.NumLocal)]
	}
	if c.Size() > 1 {
		perRank := map[int]map[NodeKey]bool{}
		var codes []int32
		for e := range local {
			codes = codes[:0]
			for cix := 0; cix < cpe; cix++ {
				idx, _ := t.corner(e*cpe + cix)
				codes = append(codes, idx...)
			}
			var owners []int
			for _, cd := range codes {
				if r := ownerOf(cd); r != me32 {
					owners = append(owners, int(r))
				}
			}
			for _, r := range owners {
				if perRank[r] == nil {
					perRank[r] = map[NodeKey]bool{}
				}
				for _, cd := range codes {
					perRank[r][keyOf(cd)] = true
				}
			}
		}
		dests := make([]int, 0, len(perRank))
		bufs := make([][]NodeKey, 0, len(perRank))
		for r, set := range perRank {
			lst := make([]NodeKey, 0, len(set))
			for k := range set {
				lst = append(lst, k)
			}
			sort.Slice(lst, func(i, j int) bool { return keyLess(lst[i], lst[j]) })
			dests = append(dests, r)
			bufs = append(bufs, lst)
		}
		_, recvd := par.NBXExchange(c, dests, bufs)
		for _, batch := range recvd {
			for _, k := range batch {
				intern(k)
			}
		}
	}

	// --- Final numbering: survivors already sit in canonical order
	// (owned-first, then by owner and key — a subsequence of the old
	// order), so merging them with the sorted new keys reproduces
	// classifyAndNumber's sort without sorting the bulk.
	norder := make([]int32, len(newKeys))
	for i := range norder {
		norder[i] = int32(i)
	}
	sort.Slice(norder, func(a, c int) bool {
		ia, ic := norder[a], norder[c]
		oa, oc := newOwner[ia] == me32, newOwner[ic] == me32
		if oa != oc {
			return oa
		}
		if newOwner[ia] != newOwner[ic] {
			return newOwner[ia] < newOwner[ic]
		}
		return keyLess(newKeys[ia], newKeys[ic])
	})
	nSurv := 0
	for _, mk := range oldMark {
		if mk {
			nSurv++
		}
	}
	m.NumLocal = nSurv + len(newKeys)
	m.Keys = make([]NodeKey, 0, m.NumLocal)
	m.Owner = make([]int32, 0, m.NumLocal)
	m.index = make(map[NodeKey]int32, m.NumLocal)
	remapOld := make([]int32, old.NumLocal)
	for i := range remapOld {
		remapOld[i] = -1
	}
	remapNew := make([]int32, len(newKeys))
	emit := func(k NodeKey, owner int32) int32 {
		pos := int32(len(m.Keys))
		m.Keys = append(m.Keys, k)
		m.Owner = append(m.Owner, owner)
		m.index[k] = pos
		return pos
	}
	// less reports whether survivor oi precedes new key nj canonically.
	survLess := func(oi int, nj int32) bool {
		so, no := old.Owner[oi] == me32, newOwner[nj] == me32
		if so != no {
			return so
		}
		if old.Owner[oi] != newOwner[nj] {
			return old.Owner[oi] < newOwner[nj]
		}
		return keyLess(old.Keys[oi], newKeys[nj])
	}
	{
		oi, j := 0, 0
		for oi < old.NumLocal && !oldMark[oi] {
			oi++
		}
		for oi < old.NumLocal || j < len(newKeys) {
			if j == len(newKeys) || (oi < old.NumLocal && survLess(oi, norder[j])) {
				remapOld[oi] = emit(old.Keys[oi], old.Owner[oi])
				oi++
				for oi < old.NumLocal && !oldMark[oi] {
					oi++
				}
			} else {
				nj := norder[j]
				remapNew[nj] = emit(newKeys[nj], newOwner[nj])
				j++
			}
		}
	}
	m.NumOwned = 0
	for _, o := range m.Owner {
		if o == me32 {
			m.NumOwned++
		}
	}

	// --- Translate provisional codes to final indices.
	final := func(code int32) int32 {
		if code < int32(old.NumLocal) {
			return remapOld[code]
		}
		return remapNew[code-int32(old.NumLocal)]
	}
	t.remap(final)
	m.connTable, m.HangingCorners = t, len(t.hang)

	b.resolveGlobalIDs()
	b.buildScatterLists()

	// --- Delta for the fem layer.
	d := &Delta{NodeRemap: remapOld, NumDirtyElems: numDirtyElems}
	d.OldElem = make([]int32, len(local))
	for e := range local {
		if affected[e] {
			d.OldElem[e] = -1
		} else {
			d.OldElem[e] = oldElem[e]
		}
	}
	dn := make([]bool, m.NumLocal)
	for _, j := range remapNew {
		dn[j] = true
	}
	for e := range local {
		if !affected[e] {
			continue
		}
		for cix := 0; cix < cpe; cix++ {
			idx, _ := m.Corner(e, cix)
			for _, i := range idx {
				dn[i] = true
			}
		}
	}
	for oe := range old.Elems {
		if !oldGone[oe] {
			continue
		}
		for cix := 0; cix < cpe; cix++ {
			idx, _ := old.Corner(oe, cix)
			for _, i := range idx {
				if ni := remapOld[i]; ni >= 0 {
					dn[ni] = true
				}
			}
		}
	}
	for _, pl := range old.sendTo {
		for _, idx := range pl.idx {
			if ni := remapOld[idx]; ni >= 0 {
				dn[ni] = true
			}
		}
	}
	for _, pl := range m.sendTo {
		for _, idx := range pl.idx {
			dn[idx] = true
		}
	}
	d.DirtyNode = dn
	return m, d
}
