package mg

import (
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// HierarchyOptions bounds the coarsening ladder.
type HierarchyOptions struct {
	// MaxLevels caps the total number of levels including the fine mesh
	// (default 8).
	MaxLevels int
	// CoarseElems stops coarsening once the global element count is at or
	// below this (default 16): the coarsest level is then cheap enough to
	// solve by smoothing alone.
	CoarseElems int64
	// MinLevel is the coarsest octree level any leaf may reach (default 1).
	MinLevel int
}

func (o *HierarchyOptions) defaults() {
	if o.MaxLevels == 0 {
		o.MaxLevels = 8
	}
	if o.CoarseElems == 0 {
		o.CoarseElems = 16
	}
	if o.MinLevel == 0 {
		o.MinLevel = 1
	}
}

// Hierarchy is the geometric multigrid mesh ladder shared by every GMG
// preconditioner on one fine mesh: level 0 is the fine mesh itself, each
// deeper level coarsens every leaf one octree level (consensus
// coarsening), re-balances 2:1 and repartitions, then rebuilds the
// distributed CG mesh. The ladder is built once per mesh epoch and
// invalidated with it.
type Hierarchy struct {
	// Meshes[0] is the fine mesh (owned by the caller); deeper entries are
	// owned by the hierarchy.
	Meshes []*mesh.Mesh
	// Down[l] (l >= 1) evaluates level-(l-1) fields at level-l owned nodes:
	// the coefficient-injection operator.
	Down []*Transfer
	// Up[l] (l >= 1) evaluates level-l fields at level-(l-1) owned nodes:
	// prolongation; its Restrict is the matching residual restriction.
	Up []*Transfer
}

// Workspace holds the per-level scratch of a hierarchy build (the leaves
// copy handed to the coarsener and the per-leaf target levels), reusable
// across refreshes so a warm refresh stops allocating per round. The zero
// value is ready to use.
type Workspace struct {
	leaves  []sfc.Octant
	targets []int
}

// LevelState records how one ladder level was produced by a refresh,
// aligned with Hierarchy.Meshes. Level 0 carries the caller's fine-mesh
// delta.
type LevelState struct {
	// Reused: the level's mesh is the previous ladder's object, unchanged.
	Reused bool
	// Delta is non-nil when the level's mesh was patched from the previous
	// ladder's mesh (mesh.Patch) instead of built from scratch; it maps the
	// old level mesh onto the new one. For level 0 it is the delta the
	// caller passed in (the solver's composed remesh delta).
	Delta *mesh.Delta
}

// RefreshResult is the delta-aware refresh telemetry: per-level states,
// which PCGMG.Rebind keys its level reuse and assembler patching on, plus
// the reuse/patch counters.
type RefreshResult struct {
	Levels []LevelState
	// LevelsReused / LevelsPatched count coarse levels whose mesh was
	// reused verbatim / patched in place (the rest were built cold).
	LevelsReused  int
	LevelsPatched int
	// RowsPatched / RowsResolved count transfer target entries whose
	// containing-element reference was carried through the element remap vs
	// re-located in the new forest, over every patched transfer.
	RowsPatched  int
	RowsResolved int
}

// NewHierarchy builds the ladder under fine. Collective; the same option
// values must be passed on every rank. The ladder always has at least the
// fine level; it stops early when coarsening makes no global progress.
func NewHierarchy(fine *mesh.Mesh, o HierarchyOptions) *Hierarchy {
	var ws Workspace
	h, _ := RefreshHierarchy(fine, nil, nil, &ws, o)
	return h
}

// Levels returns the number of levels in the ladder (>= 1).
func (h *Hierarchy) Levels() int { return len(h.Meshes) }

// RefreshHierarchy rebuilds the ladder under a remeshed fine mesh, carrying
// everything the previous ladder proves survived. Per coarse level, in
// order of preference: an unchanged forest (leaves and partition) reuses
// the previous mesh object outright — coarsening, balancing and
// partitioning are deterministic, so an unchanged coarse forest implies
// mesh.New would reproduce the previous level exactly; a changed forest
// with unmoved splitters patches the previous mesh in place (mesh.Patch),
// propagating a per-level delta down the ladder; otherwise the level is
// built cold. Transfers follow the meshes: reused on both-reused levels,
// patched in place through the element remap where the source side changed
// partition-stably under an unchanged target list (d is the fine-level
// remap; level deltas take over below), rebuilt otherwise. prev may be nil
// (a cold build — what NewHierarchy does); d may be nil when no fine-mesh
// delta is known, which only disables the level-1 transfer patch. ws must
// be non-nil and is reused across calls. The result is bitwise identical
// to NewHierarchy(fine, o). Collective.
func RefreshHierarchy(fine *mesh.Mesh, prev *Hierarchy, d *mesh.Delta, ws *Workspace, o HierarchyOptions) (*Hierarchy, *RefreshResult) {
	o.defaults()
	if ws == nil {
		ws = &Workspace{}
	}
	c := fine.Comm
	dim := fine.Dim
	h := &Hierarchy{
		Meshes: []*mesh.Mesh{fine},
		Down:   []*Transfer{nil},
		Up:     []*Transfer{nil},
	}
	res := &RefreshResult{Levels: []LevelState{{Delta: d}}}
	cur := fine
	prevCnt := globalElems(c, cur)
	// curDelta/curRemap/curStable describe cur against prev's same level:
	// stable means the level's splitters are unchanged (every mesh.Patch
	// round is), so an old transfer sourced on it keeps its ownership
	// routing and can be patched instead of rebuilt.
	curReused := false
	curStable := false
	var curRemap []int32
	if prev != nil && d != nil && len(prev.Meshes) > 0 {
		oldSpl := octree.GatherSplitters(c, prev.Meshes[0].Elems)
		newSpl := octree.GatherSplitters(c, fine.Elems)
		if oldSpl.Equal(newSpl) {
			curStable = true
			curRemap = invertElemRemap(d)
		}
	}
	for len(h.Meshes) < o.MaxLevels && prevCnt > o.CoarseElems {
		ws.leaves = append(ws.leaves[:0], cur.Elems...)
		leaves := ws.leaves
		if cap(ws.targets) < len(leaves) {
			ws.targets = make([]int, len(leaves))
		}
		targets := ws.targets[:len(leaves)]
		for i, lf := range leaves {
			t := int(lf.Level) - 1
			if t < o.MinLevel {
				t = o.MinLevel
			}
			targets[i] = t
		}
		coarse := octree.ParCoarsen(c, dim, leaves, targets)
		coarse = octree.Balance21Distributed(c, dim, coarse, nil)
		coarse = octree.PartitionWeighted(c, coarse, nil)
		cnt := par.Allreduce(c, int64(len(coarse)), func(a, b int64) int64 { return a + b })
		if cnt >= prevCnt {
			break
		}
		l := len(h.Meshes)
		var cm *mesh.Mesh
		var cmDelta *mesh.Delta
		var cmRemap []int32
		reused := false
		if prev != nil && l < len(prev.Meshes) {
			pm := prev.Meshes[l]
			if sameLocalForest(c, pm.Elems, coarse) {
				cm, reused = pm, true
				res.LevelsReused++
			} else if patched, pd := mesh.Patch(c, dim, coarse, pm, octree.AddedLeaves(pm.Elems, coarse)); patched != nil {
				cm, cmDelta = patched, pd
				cmRemap = invertElemRemap(pd)
				res.LevelsPatched++
			}
		}
		if cm == nil {
			cm = mesh.New(c, dim, coarse)
		}
		switch {
		case reused && curReused:
			h.Down = append(h.Down, prev.Down[l])
			h.Up = append(h.Up, prev.Up[l])
		case reused && curStable:
			// The source side changed partition-stably and the target list
			// (cm's owned nodes) is unchanged: the old Down transfer keeps
			// its routing; only its element references move.
			patched, resolved := patchTransfer(prev.Down[l], cur, curRemap)
			res.RowsPatched += patched
			res.RowsResolved += resolved
			h.Down = append(h.Down, prev.Down[l])
			h.Up = append(h.Up, NewTransfer(cm, cur.Keys[:cur.NumOwned]))
		default:
			h.Down = append(h.Down, NewTransfer(cur, cm.Keys[:cm.NumOwned]))
			h.Up = append(h.Up, NewTransfer(cm, cur.Keys[:cur.NumOwned]))
		}
		h.Meshes = append(h.Meshes, cm)
		res.Levels = append(res.Levels, LevelState{Reused: reused, Delta: cmDelta})
		cur, prevCnt = cm, cnt
		curReused = reused
		curStable = reused || cmDelta != nil
		curRemap = cmRemap
	}
	return h, res
}

// invertElemRemap inverts a delta's OldElem (new element -> old element)
// into old -> new, -1 for old elements that did not survive.
func invertElemRemap(d *mesh.Delta) []int32 {
	maxOld := -1
	for _, oe := range d.OldElem {
		if int(oe) > maxOld {
			maxOld = int(oe)
		}
	}
	inv := make([]int32, maxOld+1)
	for i := range inv {
		inv[i] = -1
	}
	for ne, oe := range d.OldElem {
		if oe >= 0 {
			inv[oe] = int32(ne)
		}
	}
	return inv
}

// sameLocalForest reports — collectively and consistently — whether every
// rank's local leaf list is unchanged.
func sameLocalForest(c *par.Comm, a, b []sfc.Octant) bool {
	same := len(a) == len(b)
	if same {
		for i := range a {
			if !a[i].EqualKey(b[i]) {
				same = false
				break
			}
		}
	}
	return par.Allreduce(c, same, func(x, y bool) bool { return x && y })
}

func globalElems(c *par.Comm, m *mesh.Mesh) int64 {
	return par.Allreduce(c, int64(len(m.Elems)), func(a, b int64) int64 { return a + b })
}
