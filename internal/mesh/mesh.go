// Package mesh builds distributed continuous-Galerkin finite element
// meshes over 2:1-balanced linearized octrees, following the mesh-free,
// key-based approach of Saurabh et al. (IPDPS 2023) and its predecessors
// (Ishii et al. SC'19): elements are the local leaves, vertices are
// identified by their integer location keys, hanging vertices carry no
// degrees of freedom and are interpolated from the corners of the coarser
// touching element, and ownership of a vertex is decided purely from the
// SFC partition table (the rank owning the cell containing the vertex's
// canonical point), so enumeration needs no global sort. Ghost reads and
// accumulating/combining ghost writes overlap naturally with elemental
// traversal and form the MATVEC kernel that both the FEM operators and the
// erosion/dilation feature detection (Sec. II-B3) are built on.
package mesh

import (
	"fmt"
	"sort"

	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// NodeKey identifies a vertex by its integer grid coordinates on the
// deepest-level lattice (0..sfc.MaxCoord inclusive per dimension).
type NodeKey struct {
	X, Y, Z uint32
}

func keyLess(a, b NodeKey) bool {
	if a.Z != b.Z {
		return a.Z < b.Z
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// MaxDonors is the most donor nodes a constrained (hanging) element corner
// can reference: a face-hanging vertex in 3D interpolates from 4 corners.
const MaxDonors = 4

// Constraint expresses a hanging element corner as a weighted combination
// of its N donors' local node values.
type Constraint struct {
	N   uint8
	Idx [MaxDonors]int32
	W   [MaxDonors]float64
}

// unitWeight is the weight list Corner returns for every conforming
// corner.
var unitWeight = []float64{1}

// connTable is element connectivity in the layout p4est uses for its
// element nodes (Burstedde, Wilcox & Ghattas, SIAM J. Sci. Comput. 33,
// 2011): conn holds one entry per element corner, corner-major
// (conn[e*2^Dim+c]) — the local node index of a conforming corner, or ^k
// for a hanging one whose donors are hang[k]. Conforming corners, most of
// them, cost 4 bytes; a hanging corner adds one Constraint. Builders
// append corners in element order, so hang is in corner order too.
type connTable struct {
	conn []int32
	hang []Constraint
}

// node appends a conforming corner on node idx.
func (t *connTable) node(idx int32) { t.conn = append(t.conn, idx) }

// hanging appends a hanging corner with constraint con.
func (t *connTable) hanging(con Constraint) {
	t.conn = append(t.conn, ^int32(len(t.hang)))
	t.hang = append(t.hang, con)
}

// corner returns the donors and weights of corner entry i (see
// Mesh.Corner).
func (t *connTable) corner(i int) ([]int32, []float64) {
	if k := t.conn[i]; k < 0 {
		h := &t.hang[^k]
		return h.Idx[:h.N], h.W[:h.N]
	}
	return t.conn[i : i+1], unitWeight
}

// remap replaces every node reference with f of it.
func (t *connTable) remap(f func(int32) int32) {
	for i, v := range t.conn {
		if v >= 0 {
			t.conn[i] = f(v)
		}
	}
	for i := range t.hang {
		h := &t.hang[i]
		for k := range h.Idx[:h.N] {
			h.Idx[k] = f(h.Idx[k])
		}
	}
}

// Mesh is a distributed CG finite-element mesh. All slices indexed by
// "local node" cover owned nodes first ([0,NumOwned)) followed by ghost
// nodes ([NumOwned,NumLocal)).
type Mesh struct {
	Comm *par.Comm
	Dim  int

	// Elems are the local leaf octants (sorted); ElemLevel caches levels.
	Elems     []sfc.Octant
	ElemLevel []uint8

	// Local node bookkeeping.
	NumOwned int
	NumLocal int
	Keys     []NodeKey
	Owner    []int32 // owning rank per local node
	GlobalID []int64 // global DOF number per local node

	NumGlobal   int64 // total non-hanging vertices across all ranks
	GlobalStart int64 // first global ID owned by this rank

	// The element connectivity, read through Corner (and directly by
	// GatherElem and ScatterAddElem): one int32 node index per
	// conforming corner, a side table of Constraints for the hanging
	// ones.
	connTable

	// Ghost exchange lists (per peer rank).
	sendTo   []peerList // owned node indices serialized to each borrower
	recvFrom []peerList // ghost node indices filled from each owner

	// index maps node keys to local indices.
	index map[NodeKey]int32

	// ownSpl is the splitter table node ownership was decided from when
	// the mesh was built (for a migrated old-mesh view this is the NEW
	// partition's table, not the one its element list would gather).
	ownSpl    octree.Splitters
	hasOwnSpl bool

	// gwRecv parks received ghost-write batches until all peers have
	// arrived, so GhostWrite can combine them in rank order (reused
	// across exchanges).
	gwRecv [][]float64

	// redScratch holds two alternating buffers for in-place global
	// reductions (GlobalSumInto). Two suffice: a buffer broadcast in
	// collective k can still be read by a lagging rank until it enters
	// collective k+1, and is only reused in collective k+2 — by which
	// point every rank has participated in k+1 and therefore finished
	// with k's buffer.
	redScratch [2][]float64
	redTick    int

	// HangingCorners counts constrained element corners (diagnostics):
	// the Constraint records of the connectivity's side table.
	HangingCorners int
}

// Corner returns corner c of local element e as its donor local node
// indices and their weights: for a conforming corner its node and the
// weight 1, for a hanging corner its constraint's donors and weights, so
// a gather computes 0 + 1·v at a conforming corner as it does a weighted
// sum at a hanging one. The slices alias the mesh — the weight of every
// conforming corner is one shared slice — and must not be written.
func (m *Mesh) Corner(e, c int) (idx []int32, w []float64) {
	return m.corner(e<<m.Dim + c)
}

// OwnershipTable returns the splitter table node ownership was decided
// from at build time. Every mesh the package builds records one; the
// boolean guards hand-constructed meshes. Keyed migration routes by this
// table rather than re-gathering one from the element list: for a
// migrated old-mesh view the two differ (elements keep their old-forest
// extents, ownership already follows the new partition).
func (m *Mesh) OwnershipTable() (octree.Splitters, bool) {
	return m.ownSpl, m.hasOwnSpl
}

// NodeIndex returns the local index of the node with the given key, if it
// exists on this rank.
func (m *Mesh) NodeIndex(k NodeKey) (int, bool) {
	i, ok := m.index[k]
	return int(i), ok
}

// OnBoundary reports whether local node i lies on the domain boundary.
func (m *Mesh) OnBoundary(i int) bool {
	k := m.Keys[i]
	if k.X == 0 || k.X == sfc.MaxCoord || k.Y == 0 || k.Y == sfc.MaxCoord {
		return true
	}
	return m.Dim == 3 && (k.Z == 0 || k.Z == sfc.MaxCoord)
}

type peerList struct {
	rank int
	idx  []int32
	// buf is the reusable serialization buffer for ghost exchange with
	// this peer (grown to the largest ndof seen). Safe to reuse across
	// exchanges: each exchange ends with a barrier the receiver enters
	// only after copying the payload out.
	buf []float64
}

// CornersPerElem returns 2^Dim.
func (m *Mesh) CornersPerElem() int { return 1 << m.Dim }

// NumElems returns the local element count.
func (m *Mesh) NumElems() int { return len(m.Elems) }

// NodeCoord returns the physical (unit-domain) coordinates of local node i.
func (m *Mesh) NodeCoord(i int) (x, y, z float64) {
	k := m.Keys[i]
	s := float64(sfc.MaxCoord)
	return float64(k.X) / s, float64(k.Y) / s, float64(k.Z) / s
}

// ElemSize returns the physical side length of local element e.
func (m *Mesh) ElemSize(e int) float64 {
	return float64(m.Elems[e].Side()) / float64(sfc.MaxCoord)
}

// ElemOrigin returns the physical coordinates of element e's anchor.
func (m *Mesh) ElemOrigin(e int) (x, y, z float64) {
	o := m.Elems[e]
	s := float64(sfc.MaxCoord)
	return float64(o.X) / s, float64(o.Y) / s, float64(o.Z) / s
}

// cornerKey returns the grid key of corner c (bit 0 = +x, 1 = +y, 2 = +z)
// of octant o.
func cornerKey(o sfc.Octant, c int) NodeKey {
	s := o.Side()
	k := NodeKey{o.X, o.Y, o.Z}
	if c&1 != 0 {
		k.X += s
	}
	if c&2 != 0 {
		k.Y += s
	}
	if o.Dim == 3 && c&4 != 0 {
		k.Z += s
	}
	return k
}

// New builds the distributed mesh over the local leaves of a globally
// sorted, 2:1-balanced, complete forest. Collective.
func New(c *par.Comm, dim int, local []sfc.Octant) *Mesh {
	m := &Mesh{Comm: c, Dim: dim, Elems: local}
	m.ElemLevel = make([]uint8, len(local))
	for i, o := range local {
		m.ElemLevel[i] = o.Level
	}
	b := newBuilder(m)
	b.exchangeGhostElements()
	b.classifyAndNumber()
	b.resolveGlobalIDs()
	b.buildScatterLists()
	return m
}

// builder holds construction scratch state. spl is the element-derived
// table used for geometric routing (which ranks hold the leaves covering
// a region); own is the table node ownership is decided from. The two
// coincide for every normal build — they split only for the migrated
// old-mesh view, whose elements still span the old forest's extents while
// its nodes must already belong to the new partition's owners.
type builder struct {
	m        *Mesh
	spl      octree.Splitters
	own      octree.Splitters
	combined *octree.Tree // local + ghost elements, sorted
	combRank []int32      // owner rank per combined element
	nodeIdx  map[NodeKey]int32
}

func newBuilder(m *Mesh) *builder {
	return &builder{m: m, nodeIdx: make(map[NodeKey]int32)}
}

// exchangeGhostElements ships every local element to the owners of the
// regions it touches, so each rank can point-locate every leaf touching
// any corner of its local elements.
func (b *builder) exchangeGhostElements() {
	m := b.m
	c := m.Comm
	b.spl = octree.GatherSplitters(c, m.Elems)
	b.own = b.spl
	m.ownSpl, m.hasOwnSpl = b.own, true
	perRank := make(map[int]map[sfc.Octant]bool)
	var nbuf [26]sfc.Octant
	for _, o := range m.Elems {
		for _, n := range o.AllNeighbors(nbuf[:0]) {
			for _, r := range b.spl.RangeOwners(n) {
				if r == c.Rank() {
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

	type tagged struct {
		oct  sfc.Octant
		rank int32
	}
	all := make([]tagged, 0, len(m.Elems))
	for _, o := range m.Elems {
		all = append(all, tagged{o, int32(c.Rank())})
	}
	for i, batch := range recvd {
		for _, o := range batch {
			all = append(all, tagged{o, int32(srcs[i])})
		}
	}
	sort.Slice(all, func(i, j int) bool { return sfc.Less(all[i].oct, all[j].oct) })
	octs := make([]sfc.Octant, len(all))
	ranks := make([]int32, len(all))
	for i, t := range all {
		octs[i] = t.oct
		ranks[i] = t.rank
	}
	b.combined = &octree.Tree{Dim: m.Dim, Leaves: octs}
	b.combRank = ranks
}

// touchingLeaves returns the distinct combined-element indices touching
// grid point p: the cells containing p shifted by -1 in each subset of
// dimensions.
func (b *builder) touchingLeaves(p NodeKey, out []int32) []int32 {
	dim := b.m.Dim
	for s := 0; s < 1<<dim; s++ {
		x, y, z := p.X, p.Y, p.Z
		if s&1 != 0 {
			if x == 0 {
				continue
			}
			x--
		} else if x >= sfc.MaxCoord {
			continue
		}
		if s&2 != 0 {
			if y == 0 {
				continue
			}
			y--
		} else if y >= sfc.MaxCoord {
			continue
		}
		if dim == 3 {
			if s&4 != 0 {
				if z == 0 {
					continue
				}
				z--
			} else if z >= sfc.MaxCoord {
				continue
			}
		}
		j := b.combined.PointLocate(x, y, z)
		if j < 0 {
			continue
		}
		dup := false
		for _, v := range out {
			if v == int32(j) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, int32(j))
		}
	}
	return out
}

// isCornerOf reports whether p is one of o's 2^d corners.
func isCornerOf(p NodeKey, o sfc.Octant) bool {
	s := o.Side()
	okX := p.X == o.X || p.X == o.X+s
	okY := p.Y == o.Y || p.Y == o.Y+s
	if o.Dim == 2 {
		return okX && okY && p.Z == 0
	}
	return okX && okY && (p.Z == o.Z || p.Z == o.Z+s)
}

// canonicalOwner returns the rank owning grid point p: the owner of the
// cell containing p after clamping boundary coordinates inward. The rule
// uses only the ownership splitter table, so every rank computes
// identical owners without communication.
func (b *builder) canonicalOwner(p NodeKey) int {
	x, y, z := p.X, p.Y, p.Z
	if x >= sfc.MaxCoord {
		x = sfc.MaxCoord - 1
	}
	if y >= sfc.MaxCoord {
		y = sfc.MaxCoord - 1
	}
	if b.m.Dim == 3 && z >= sfc.MaxCoord {
		z = sfc.MaxCoord - 1
	}
	q := sfc.Octant{X: x, Y: y, Z: z, Level: sfc.MaxLevel, Dim: uint8(b.m.Dim)}
	return b.own.Owner(q)
}

// classify determines whether p (a corner of a local element) is hanging
// and, if so, its donor keys and weights on the coarser touching element.
func (b *builder) classify(p NodeKey) (hanging bool, donors []NodeKey, w float64) {
	var tbuf [8]int32
	touching := b.touchingLeaves(p, tbuf[:0])
	coarse := int32(-1)
	for _, j := range touching {
		if !isCornerOf(p, b.combined.Leaves[j]) {
			if coarse < 0 || b.combined.Leaves[j].Level < b.combined.Leaves[coarse].Level {
				coarse = j
			}
		}
	}
	if coarse < 0 {
		return false, nil, 0
	}
	E := b.combined.Leaves[coarse]
	h := E.Side()
	half := h / 2
	rel := [3]uint32{p.X - E.X, p.Y - E.Y, p.Z - E.Z}
	var interior []int
	for d := 0; d < b.m.Dim; d++ {
		switch rel[d] {
		case 0, h:
		case half:
			interior = append(interior, d)
		default:
			panic(fmt.Sprintf("mesh: corner %v not on level-%d lattice of %v (2:1 balance violated?)", p, E.Level, E))
		}
	}
	if len(interior) == 0 || len(interior) > 2 {
		panic(fmt.Sprintf("mesh: hanging corner %v has %d interior dims on %v", p, len(interior), E))
	}
	nd := 1 << len(interior)
	donors = make([]NodeKey, 0, nd)
	for s := 0; s < nd; s++ {
		q := p
		for bi, d := range interior {
			var v uint32
			if s&(1<<bi) != 0 {
				v = h
			}
			switch d {
			case 0:
				q.X = E.X + v
			case 1:
				q.Y = E.Y + v
			default:
				q.Z = E.Z + v
			}
		}
		donors = append(donors, q)
	}
	return true, donors, 1 / float64(nd)
}

// addNode interns a node key, returning its provisional index into keys.
func (b *builder) addNode(p NodeKey, keys *[]NodeKey) int32 {
	if idx, ok := b.nodeIdx[p]; ok {
		return idx
	}
	idx := int32(len(*keys))
	b.nodeIdx[p] = idx
	*keys = append(*keys, p)
	return idx
}

// classifyAndNumber walks every local element corner, classifies hanging
// vertices, interns node keys (non-hanging corners and hanging donors) and
// produces the constraint table. A rank assembling a matrix row owned by a
// remote rank will reference, as columns, every node of the contributing
// element — so for each local element that touches a remotely-owned node,
// the element's full node-key set is shipped to that owner and interned
// there as additional ghost slots. Finally nodes are renumbered
// owned-first.
func (b *builder) classifyAndNumber() {
	m := b.m
	cpe := m.CornersPerElem()
	var keys []NodeKey
	t := connTable{conn: make([]int32, 0, len(m.Elems)*cpe)}
	// Per-element node key sets, for the off-process column exchange.
	elemKeys := make([][]NodeKey, len(m.Elems))
	for e, o := range m.Elems {
		var eset []NodeKey
		for cix := 0; cix < cpe; cix++ {
			p := cornerKey(o, cix)
			hanging, donors, w := b.classify(p)
			if !hanging {
				t.node(b.addNode(p, &keys))
				eset = append(eset, p)
				continue
			}
			var con Constraint
			con.N = uint8(len(donors))
			for i, q := range donors {
				con.Idx[i] = b.addNode(q, &keys)
				con.W[i] = w
			}
			t.hanging(con)
			eset = append(eset, donors...)
		}
		elemKeys[e] = eset
	}
	b.numberFromConn(keys, t, elemKeys)
}

// numberFromConn finishes node enumeration from an interned key list and
// a provisional connectivity (classifyAndNumber's second half, also
// entered directly by the migrated-view build, which receives constraints
// ready-made instead of classifying): ship column key sets to remote row
// owners, then renumber owned-first. The final numbering is a pure
// function of the key set, the ownership table and the rank — the
// interning order keys arrived in does not matter.
func (b *builder) numberFromConn(keys []NodeKey, t connTable, elemKeys [][]NodeKey) {
	m := b.m
	// Ship column key sets to remote row owners.
	if m.Comm.Size() > 1 {
		perRank := map[int]map[NodeKey]bool{}
		me := m.Comm.Rank()
		for e := range m.Elems {
			var owners []int
			for _, k := range elemKeys[e] {
				r := b.canonicalOwner(k)
				if r != me {
					owners = append(owners, r)
				}
			}
			for _, r := range owners {
				if perRank[r] == nil {
					perRank[r] = map[NodeKey]bool{}
				}
				for _, k := range elemKeys[e] {
					perRank[r][k] = true
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
			// Sort for determinism of interning order.
			sort.Slice(lst, func(i, j int) bool { return keyLess(lst[i], lst[j]) })
			dests = append(dests, r)
			bufs = append(bufs, lst)
		}
		_, recvd := par.NBXExchange(m.Comm, dests, bufs)
		for _, batch := range recvd {
			for _, k := range batch {
				b.addNode(k, &keys)
			}
		}
	}
	// Owned-first stable renumbering, each group sorted by key for
	// determinism.
	owner := make([]int32, len(keys))
	for i, k := range keys {
		owner[i] = int32(b.canonicalOwner(k))
	}
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	me := int32(m.Comm.Rank())
	sort.Slice(order, func(a, c int) bool {
		ia, ic := order[a], order[c]
		oa, oc := owner[ia] == me, owner[ic] == me
		if oa != oc {
			return oa
		}
		if owner[ia] != owner[ic] {
			return owner[ia] < owner[ic]
		}
		return keyLess(keys[ia], keys[ic])
	})
	perm := make([]int32, len(keys)) // old -> new
	m.Keys = make([]NodeKey, len(keys))
	m.Owner = make([]int32, len(keys))
	m.index = make(map[NodeKey]int32, len(keys))
	for newIdx, oldIdx := range order {
		perm[oldIdx] = int32(newIdx)
		m.Keys[newIdx] = keys[oldIdx]
		m.Owner[newIdx] = owner[oldIdx]
		m.index[keys[oldIdx]] = int32(newIdx)
	}
	t.remap(func(i int32) int32 { return perm[i] })
	m.connTable, m.HangingCorners = t, len(t.hang)
	m.NumLocal = len(keys)
	m.NumOwned = 0
	for _, o := range m.Owner {
		if o == me {
			m.NumOwned++
		}
	}
}

// resolveGlobalIDs assigns contiguous global IDs to owned nodes via an
// exclusive scan, then resolves ghost IDs by sending each owner the keys
// this rank borrows and receiving the IDs back (the NBX "return address"
// pattern of Sec. II-C3c).
func (b *builder) resolveGlobalIDs() {
	m := b.m
	c := m.Comm
	n := int64(m.NumOwned)
	m.GlobalStart = par.Exscan(c, n, 0, func(a, x int64) int64 { return a + x })
	m.NumGlobal = par.Allreduce(c, n, func(a, x int64) int64 { return a + x })
	m.GlobalID = make([]int64, m.NumLocal)
	for i := 0; i < m.NumOwned; i++ {
		m.GlobalID[i] = m.GlobalStart + int64(i)
	}
	if c.Size() == 1 {
		return
	}
	// Group ghost keys by owner.
	type req struct {
		Key NodeKey
	}
	perRank := map[int][]req{}
	for i := m.NumOwned; i < m.NumLocal; i++ {
		r := int(m.Owner[i])
		perRank[r] = append(perRank[r], req{m.Keys[i]})
	}
	dests := make([]int, 0, len(perRank))
	bufs := make([][]req, 0, len(perRank))
	for r, lst := range perRank {
		dests = append(dests, r)
		bufs = append(bufs, lst)
	}
	srcs, recvd := par.NBXExchange(c, dests, bufs)
	// Answer with global IDs in request order (m.index already maps every
	// local key, so no owned-key map needs building).
	replyDests := make([]int, 0, len(srcs))
	replyBufs := make([][]int64, 0, len(srcs))
	for i, batch := range recvd {
		ids := make([]int64, len(batch))
		for k, rq := range batch {
			li, ok := m.index[rq.Key]
			if !ok || int(li) >= m.NumOwned {
				panic(fmt.Sprintf("mesh: rank %d asked rank %d for unowned node %v", srcs[i], c.Rank(), rq.Key))
			}
			ids[k] = m.GlobalID[li]
		}
		replyDests = append(replyDests, srcs[i])
		replyBufs = append(replyBufs, ids)
	}
	rsrcs, replies := par.NBXExchange(c, replyDests, replyBufs)
	// Fill ghost IDs: match replies to the per-owner request order.
	ghostByOwner := map[int][]int{}
	for i := m.NumOwned; i < m.NumLocal; i++ {
		r := int(m.Owner[i])
		ghostByOwner[r] = append(ghostByOwner[r], i)
	}
	for i, src := range rsrcs {
		idxs := ghostByOwner[src]
		ids := replies[i]
		if len(idxs) != len(ids) {
			panic("mesh: ghost ID reply length mismatch")
		}
		for k, li := range idxs {
			m.GlobalID[li] = ids[k]
		}
	}
}

// buildScatterLists derives the static ghost-exchange lists: for every
// peer, which owned nodes it borrows (sendTo) and which local ghost slots
// it owns (recvFrom).
func (b *builder) buildScatterLists() {
	m := b.m
	c := m.Comm
	if c.Size() == 1 {
		return
	}
	type req struct {
		Key NodeKey
	}
	perRank := map[int][]int32{}
	for i := m.NumOwned; i < m.NumLocal; i++ {
		r := int(m.Owner[i])
		perRank[r] = append(perRank[r], int32(i))
	}
	dests := make([]int, 0, len(perRank))
	bufs := make([][]req, 0, len(perRank))
	for r, idxs := range perRank {
		lst := make([]req, len(idxs))
		for k, li := range idxs {
			lst[k] = req{m.Keys[li]}
		}
		m.recvFrom = append(m.recvFrom, peerList{rank: r, idx: idxs})
		dests = append(dests, r)
		bufs = append(bufs, lst)
	}
	sort.Slice(m.recvFrom, func(i, j int) bool { return m.recvFrom[i].rank < m.recvFrom[j].rank })
	srcs, recvd := par.NBXExchange(c, dests, bufs)
	for i, batch := range recvd {
		idxs := make([]int32, len(batch))
		for k, rq := range batch {
			li, ok := m.index[rq.Key]
			if !ok || int(li) >= m.NumOwned {
				panic("mesh: borrower requested unowned node")
			}
			idxs[k] = li
		}
		m.sendTo = append(m.sendTo, peerList{rank: srcs[i], idx: idxs})
	}
	sort.Slice(m.sendTo, func(i, j int) bool { return m.sendTo[i].rank < m.sendTo[j].rank })
}
