// Partition-shifted incremental construction: when the SFC splitters
// moved, Patch cannot reuse the old numbering directly — node ownership
// changed. PatchMigrated restores the fast path by first migrating the
// old mesh to the new owners (an exact, key-addressed exchange of
// elements with their ready-made constraints — no re-classification, no
// point location) and then running the ordinary patch against that view:
// on each rank the view is an old-forest mesh already partitioned and
// owned by the new splitters, so survivors keep canonical order and the
// patch machinery applies unchanged. The result is bitwise identical to
// mesh.New on the new forest.
package mesh

import (
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// migration records where each element of a migrated view came from:
// SrcElem maps view element indices to this rank's original element
// indices, -1 for elements that arrived from another rank.
type migration struct {
	SrcElem []int32
}

// wireCorner is one element corner's constraint shipped by key: donor
// node keys and their count. The weights are not shipped — they are the
// uniform 1/N the classifier assigns, reconstructed exactly.
type wireCorner struct {
	N    uint8
	Keys [MaxDonors]NodeKey
}

// wireElem carries one migrating element: its octant and per-corner
// constraints (2^dim of the 8 slots used).
type wireElem struct {
	Oct     sfc.Octant
	Corners [8]wireCorner
}

// newMigratedView redistributes orig by the new splitter table: every
// element moves to the rank owning its SFC position under newSpl,
// carrying its constraints by key, and the receiving ranks rebuild node
// numbering under newSpl ownership without re-classifying anything. The
// view spans exactly orig's forest; only ownership and placement moved.
// Collective.
func newMigratedView(orig *Mesh, newSpl octree.Splitters) (*Mesh, *migration) {
	c := orig.Comm
	dim := orig.Dim
	cpe := 1 << dim
	me := c.Rank()

	// --- Route whole constant-owner runs of the sorted local elements.
	keptLo, keptHi := 0, 0
	var dests []int
	var bufs [][]wireElem
	newSpl.OwnerRuns(orig.Elems, func(lo, hi, owner int) {
		if owner == me {
			keptLo, keptHi = lo, hi
			return
		}
		batch := make([]wireElem, hi-lo)
		for i := lo; i < hi; i++ {
			w := &batch[i-lo]
			w.Oct = orig.Elems[i]
			for cix := 0; cix < cpe; cix++ {
				idx, _ := orig.Corner(i, cix)
				wc := &w.Corners[cix]
				wc.N = uint8(len(idx))
				for k, j := range idx {
					wc.Keys[k] = orig.Keys[j]
				}
			}
		}
		dests = append(dests, owner)
		bufs = append(bufs, batch)
	})
	type sourced struct {
		src   int
		batch []wireElem
	}
	var batches []sourced
	if c.Size() > 1 {
		srcs, recvd := par.NBXExchange(c, dests, bufs)
		for i := range srcs {
			batches = append(batches, sourced{srcs[i], recvd[i]})
		}
		// Lower source ranks hold strictly earlier SFC ranges, so
		// source-rank order reassembles a sorted local list (the kept run
		// slots in at src == me).
		batches = append(batches, sourced{me, nil})
		for i := 1; i < len(batches); i++ {
			for j := i; j > 0 && batches[j].src < batches[j-1].src; j-- {
				batches[j], batches[j-1] = batches[j-1], batches[j]
			}
		}
	} else {
		batches = []sourced{{me, nil}}
	}

	// --- Assemble the view: elements, levels, provenance and constraints
	// (interned by key; received corners reconstruct weights as 1/N).
	nView := keptHi - keptLo
	for _, sb := range batches {
		nView += len(sb.batch)
	}
	m := &Mesh{Comm: c, Dim: dim}
	m.Elems = make([]sfc.Octant, 0, nView)
	m.ElemLevel = make([]uint8, 0, nView)
	mig := &migration{SrcElem: make([]int32, 0, nView)}
	b := newBuilder(m)
	b.own = newSpl
	m.ownSpl, m.hasOwnSpl = newSpl, true
	var keys []NodeKey
	t := connTable{conn: make([]int32, 0, nView*cpe)}
	elemKeys := make([][]NodeKey, 0, nView)
	var eset []NodeKey
	// corner appends one element corner on donor keys with weights w (nil:
	// the uniform 1/N the classifier assigns).
	corner := func(dk []NodeKey, w []float64) {
		eset = append(eset, dk...)
		if len(dk) == 1 {
			t.node(b.addNode(dk[0], &keys))
			return
		}
		var con Constraint
		con.N = uint8(len(dk))
		wgt := 1 / float64(len(dk))
		for k, key := range dk {
			con.Idx[k] = b.addNode(key, &keys)
			con.W[k] = wgt
			if w != nil {
				con.W[k] = w[k]
			}
		}
		t.hanging(con)
	}
	var dk [MaxDonors]NodeKey
	addElem := func(o sfc.Octant, src int32) {
		m.Elems = append(m.Elems, o)
		m.ElemLevel = append(m.ElemLevel, o.Level)
		mig.SrcElem = append(mig.SrcElem, src)
	}
	for _, sb := range batches {
		if sb.src == me {
			for oe := keptLo; oe < keptHi; oe++ {
				addElem(orig.Elems[oe], int32(oe))
				eset = eset[:0]
				for cix := 0; cix < cpe; cix++ {
					idx, w := orig.Corner(oe, cix)
					for k, j := range idx {
						dk[k] = orig.Keys[j]
					}
					corner(dk[:len(idx)], w)
				}
				elemKeys = append(elemKeys, append([]NodeKey(nil), eset...))
			}
			continue
		}
		for i := range sb.batch {
			w := &sb.batch[i]
			addElem(w.Oct, -1)
			eset = eset[:0]
			for cix := 0; cix < cpe; cix++ {
				wc := &w.Corners[cix]
				corner(wc.Keys[:wc.N], nil)
			}
			elemKeys = append(elemKeys, append([]NodeKey(nil), eset...))
		}
	}

	// --- Number under the new ownership and wire the exchange schedules;
	// identical to the tail of a from-scratch build.
	b.numberFromConn(keys, t, elemKeys)
	b.resolveGlobalIDs()
	b.buildScatterLists()
	return m, mig
}

// PatchMigrated builds the mesh over the local leaves of a globally
// sorted, 2:1-balanced forest whose partition splitters moved relative to
// orig: it migrates orig to the new owners (newMigratedView) and patches
// against the view, composing the two steps into one orig-relative Delta.
// The returned view carries orig's forest under the new partition — the
// caller migrates field values onto it (exact, key-addressed) and
// transfers from there, so inter-grid queries resolve locally. Bitwise
// identical to mesh.New(local) on every rank. Collective.
func PatchMigrated(orig *Mesh, local []sfc.Octant) (*Mesh, *Mesh, *Delta) {
	c := orig.Comm
	newSpl := octree.GatherSplitters(c, local)
	view, mig := newMigratedView(orig, newSpl)
	dirty := octree.AddedLeaves(view.Elems, local)
	newM, dv := patchWith(c, orig.Dim, local, view, dirty, newSpl)
	return newM, view, composeDelta(orig, view, newM, mig, dv)
}

// composeDelta turns the view-relative patch delta dv into an
// orig-relative one. Node and element identity compose by key; dirtiness
// widens by re-ownership: any node whose owner moved (or that has no
// orig counterpart) is unstable, and every node sharing a new element
// with an unstable node — or an orig element that migrated away — is
// dirty, so a clean row's column pattern provably keeps its relative
// order under the composed remap (all its columns kept their owner).
func composeDelta(orig, view, newM *Mesh, mig *migration, dv *Delta) *Delta {
	cpe := newM.CornersPerElem()
	d := &Delta{}

	// NodeRemap by key identity; owner-moved nodes stay unmapped so a
	// clean row referencing one fails loudly instead of mis-sorting.
	d.NodeRemap = make([]int32, orig.NumLocal)
	for i := range d.NodeRemap {
		d.NodeRemap[i] = -1
	}
	dn := append([]bool(nil), dv.DirtyNode...)
	unstable := make([]bool, newM.NumLocal)
	for j := 0; j < newM.NumLocal; j++ {
		oi, ok := orig.index[newM.Keys[j]]
		if !ok || orig.Owner[oi] != newM.Owner[j] {
			unstable[j] = true
			dn[j] = true
			continue
		}
		d.NodeRemap[oi] = int32(j)
	}

	// Element provenance composes through the view; elements that arrived
	// from another rank have no local plan slots to carry over.
	d.OldElem = make([]int32, len(dv.OldElem))
	for e := range dv.OldElem {
		oe := int32(-1)
		if ve := dv.OldElem[e]; ve >= 0 {
			oe = mig.SrcElem[ve]
		}
		d.OldElem[e] = oe
		dirtyE := oe < 0
		if dirtyE {
			d.NumDirtyElems++
		}
		if !dirtyE {
			for cix := 0; cix < cpe && !dirtyE; cix++ {
				idx, _ := newM.Corner(e, cix)
				for _, i := range idx {
					if unstable[i] {
						dirtyE = true
						break
					}
				}
			}
		}
		if !dirtyE {
			continue
		}
		for cix := 0; cix < cpe; cix++ {
			idx, _ := newM.Corner(e, cix)
			for _, i := range idx {
				dn[i] = true
			}
		}
	}

	// Departed elements couple surviving local rows to nodes that left
	// with them (and possibly changed owner without any local element
	// still containing them): their whole stencils re-resolve.
	kept := make([]bool, orig.NumElems())
	for _, oe := range mig.SrcElem {
		if oe >= 0 {
			kept[oe] = true
		}
	}
	for oe := range orig.Elems {
		if kept[oe] {
			continue
		}
		for cix := 0; cix < cpe; cix++ {
			idx, _ := orig.Corner(oe, cix)
			for _, i := range idx {
				if ni := d.NodeRemap[i]; ni >= 0 {
					dn[ni] = true
				}
			}
		}
	}
	d.DirtyNode = dn
	return d
}
