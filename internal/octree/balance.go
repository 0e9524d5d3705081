package octree

import (
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// PointLocate returns the index of the leaf containing the grid point
// (x,y,z) (half-open octant regions), or -1 if the point lies in a void
// region of an incomplete tree. A leaf containing the point is an ancestor
// of (or equal to) the point's MaxLevel octant q, and no other leaf lies
// between the two in SFC order, so the only candidate is the last leaf
// ≤ q: one binary search.
func (t *Tree) PointLocate(x, y, z uint32) int {
	q := sfc.Octant{X: x, Y: y, Z: z, Level: sfc.MaxLevel, Dim: uint8(t.Dim)}
	lo, hi := 0, len(t.Leaves) // invariant: leaves [0,lo) are ≤ q, [hi,n) are > q
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sfc.Compare(t.Leaves[mid], q) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 && t.Leaves[lo-1].ContainsPoint(x, y, z) {
		return lo - 1
	}
	return -1
}

// Balance21 enforces the full (face, edge and corner) 2:1 balance
// condition — no two touching leaves may differ by more than one level —
// by iterative ripple refinement to a fixed point.
//
// Violations are detected from the fine side: if leaf f touches a leaf c
// with level(c) < level(f)-1, then c contains the anchor of one of f's
// same-level neighbour octants, so a point-location per neighbour finds
// every violating coarse leaf in O(log n). Refinement honours the retain
// filter for incomplete trees.
func (t *Tree) Balance21(retain RetainFn) *Tree {
	cur := t
	for iter := 0; ; iter++ {
		targets, changed := cur.balanceTargets(nil)
		if !changed {
			return cur
		}
		cur = cur.Refine(targets, retain)
		if iter > sfc.MaxLevel+2 {
			panic("octree.Balance21: failed to converge")
		}
	}
}

// balanceTargets computes refinement targets from local leaves plus
// optional remote octants (leaves owned by other ranks whose grading
// constraints reach into this partition). Returns the per-leaf targets and
// whether any leaf must refine.
func (t *Tree) balanceTargets(remote []sfc.Octant) ([]int, bool) {
	targets := make([]int, len(t.Leaves))
	for i, o := range t.Leaves {
		targets[i] = int(o.Level)
	}
	changed := false
	for _, o := range t.Leaves {
		if t.imposeOn(o, targets) {
			changed = true
		}
	}
	for _, ro := range remote {
		if t.imposeOn(ro, targets) {
			changed = true
		}
	}
	return targets, changed
}

// Balance21Distributed enforces 2:1 balance on a distributed forest. Each
// round performs a local ripple fixpoint, then ships every leaf whose
// grading constraint reaches a remote partition to the owning ranks via
// NBX sparse exchange, and repeats until no rank changes (allreduced
// flag). Returns the new local leaves; the partition may grow unevenly,
// so callers repartition afterwards.
func Balance21Distributed(c *par.Comm, dim int, leaves []sfc.Octant, retain RetainFn) []sfc.Octant {
	if c.Size() == 1 {
		t := &Tree{Dim: dim, Leaves: leaves}
		return t.Balance21(retain).Leaves
	}
	t := &Tree{Dim: dim, Leaves: leaves}
	for round := 0; ; round++ {
		t = t.Balance21(retain)
		spl := GatherSplitters(c, t.Leaves)
		// Ship each leaf to every remote rank owning part of any of its
		// neighbour octants: the anchors those ranks point-locate may fall
		// anywhere in the neighbour region.
		perRank := make(map[int]map[sfc.Octant]bool)
		var nbuf [26]sfc.Octant
		for _, o := range t.Leaves {
			for _, n := range o.AllNeighbors(nbuf[:0]) {
				for _, r := range spl.RangeOwners(n) {
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
			b := make([]sfc.Octant, 0, len(set))
			for o := range set {
				b = append(b, o)
			}
			dests = append(dests, r)
			bufs = append(bufs, b)
		}
		_, recvd := par.NBXExchange(c, dests, bufs)
		var remote []sfc.Octant
		for _, b := range recvd {
			remote = append(remote, b...)
		}
		targets, changed := t.balanceTargets(remote)
		anyChanged := par.Allreduce(c, changed, func(a, b bool) bool { return a || b })
		if !anyChanged {
			return t.Leaves
		}
		if changed {
			t = t.Refine(targets, retain)
		}
		if round > sfc.MaxLevel+2 {
			panic("octree.Balance21Distributed: failed to converge")
		}
	}
}
