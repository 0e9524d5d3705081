package mesh

import (
	"fmt"
	"math/rand"
	"testing"

	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// protectedPerturb refines/coarsens random leaves of a balanced tree while
// leaving every leaf within `radius` of a partition boundary index
// untouched, so the partition splitters stay stable and the patch path is
// actually exercised.
func protectedPerturb(r *rand.Rand, t *octree.Tree, p, radius int) *octree.Tree {
	n := t.Len()
	protected := func(i int) bool {
		for rk := 0; rk <= p; rk++ {
			b := rk * n / p
			if i >= b-radius && i <= b+radius {
				return true
			}
		}
		return false
	}
	ct := make([]int, n)
	for i, o := range t.Leaves {
		ct[i] = int(o.Level)
		if !protected(i) && o.Level > 0 && r.Float64() < 0.06 {
			ct[i] = int(o.Level) - 1
		}
	}
	out := t.Coarsen(ct)
	// Map protection onto the coarsened tree by octant interval overlap:
	// protect any leaf overlapping a protected original leaf.
	rt := make([]int, out.Len())
	j := 0
	for i, o := range out.Leaves {
		rt[i] = int(o.Level)
		for j < n && sfc.Less(t.Leaves[j], o) && !t.Leaves[j].Overlaps(o) {
			j++
		}
		prot := false
		for k := j; k < n && (t.Leaves[k].Overlaps(o) || !sfc.Less(o, t.Leaves[k])); k++ {
			if t.Leaves[k].Overlaps(o) && protected(k) {
				prot = true
				break
			}
		}
		if !prot && r.Float64() < 0.06 {
			rt[i] = int(o.Level) + 1
		}
	}
	return out.Refine(rt, nil)
}

// ownChunk deals leaves by old-splitter ownership so the new partition
// keeps the old firsts whenever the first leaves survive.
func ownChunk(leaves []sfc.Octant, spl octree.Splitters, rank int) []sfc.Octant {
	var out []sfc.Octant
	for _, o := range leaves {
		if spl.Owner(o.FirstDescendant()) == rank {
			out = append(out, o)
		}
	}
	return out
}

func meshEqual(a, b *Mesh) error {
	if len(a.Elems) != len(b.Elems) {
		return fmt.Errorf("elems: %d vs %d", len(a.Elems), len(b.Elems))
	}
	for i := range a.Elems {
		if !a.Elems[i].EqualKey(b.Elems[i]) || a.ElemLevel[i] != b.ElemLevel[i] {
			return fmt.Errorf("elem %d differs", i)
		}
	}
	if a.NumOwned != b.NumOwned || a.NumLocal != b.NumLocal {
		return fmt.Errorf("counts: owned %d/%d local %d/%d", a.NumOwned, b.NumOwned, a.NumLocal, b.NumLocal)
	}
	if a.NumGlobal != b.NumGlobal || a.GlobalStart != b.GlobalStart {
		return fmt.Errorf("global: %d@%d vs %d@%d", a.NumGlobal, a.GlobalStart, b.NumGlobal, b.GlobalStart)
	}
	if a.HangingCorners != b.HangingCorners {
		return fmt.Errorf("hanging: %d vs %d", a.HangingCorners, b.HangingCorners)
	}
	for i := 0; i < a.NumLocal; i++ {
		if a.Keys[i] != b.Keys[i] {
			return fmt.Errorf("key %d: %v vs %v", i, a.Keys[i], b.Keys[i])
		}
		if a.Owner[i] != b.Owner[i] {
			return fmt.Errorf("owner %d: %d vs %d", i, a.Owner[i], b.Owner[i])
		}
		if a.GlobalID[i] != b.GlobalID[i] {
			return fmt.Errorf("gid %d: %d vs %d", i, a.GlobalID[i], b.GlobalID[i])
		}
		if a.index[a.Keys[i]] != b.index[b.Keys[i]] {
			return fmt.Errorf("index %d differs", i)
		}
	}
	if len(a.conn) != len(b.conn) || len(a.hang) != len(b.hang) || a.HangingCorners != b.HangingCorners {
		return fmt.Errorf("conn len")
	}
	for i := range a.conn {
		if a.conn[i] != b.conn[i] {
			return fmt.Errorf("conn %d: %d vs %d", i, a.conn[i], b.conn[i])
		}
	}
	for i := range a.hang {
		ca, cb := a.hang[i], b.hang[i]
		if ca.N != cb.N {
			return fmt.Errorf("hanging corner %d: N %d vs %d", i, ca.N, cb.N)
		}
		for k := 0; k < int(ca.N); k++ {
			if ca.Idx[k] != cb.Idx[k] || ca.W[k] != cb.W[k] {
				return fmt.Errorf("hanging corner %d donor %d: (%d,%v) vs (%d,%v)", i, k, ca.Idx[k], ca.W[k], cb.Idx[k], cb.W[k])
			}
		}
	}
	if len(a.sendTo) != len(b.sendTo) || len(a.recvFrom) != len(b.recvFrom) {
		return fmt.Errorf("peer list counts")
	}
	for i := range a.sendTo {
		if a.sendTo[i].rank != b.sendTo[i].rank || len(a.sendTo[i].idx) != len(b.sendTo[i].idx) {
			return fmt.Errorf("sendTo %d shape", i)
		}
		for k := range a.sendTo[i].idx {
			if a.sendTo[i].idx[k] != b.sendTo[i].idx[k] {
				return fmt.Errorf("sendTo %d idx %d", i, k)
			}
		}
	}
	for i := range a.recvFrom {
		if a.recvFrom[i].rank != b.recvFrom[i].rank || len(a.recvFrom[i].idx) != len(b.recvFrom[i].idx) {
			return fmt.Errorf("recvFrom %d shape", i)
		}
		for k := range a.recvFrom[i].idx {
			if a.recvFrom[i].idx[k] != b.recvFrom[i].idx[k] {
				return fmt.Errorf("recvFrom %d idx %d", i, k)
			}
		}
	}
	return nil
}

// TestPatchMatchesNew is the headline invariant at the mesh layer: Patch
// over a perturbed forest must reproduce mesh.New field for field —
// numbering, ownership, global IDs, constraints and exchange lists.
func TestPatchMatchesNew(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for seed := int64(0); seed < 3; seed++ {
			par.Run(p, func(c *par.Comm) {
				r := rand.New(rand.NewSource(seed))
				base := octree.Build(2, func(o sfc.Octant) bool { return r.Float64() < 0.45 }, 6, nil).Balance21(nil)
				oldLocal := base.Leaves[c.Rank()*base.Len()/p : (c.Rank()+1)*base.Len()/p]
				oldLocal = append([]sfc.Octant(nil), oldLocal...)
				old := New(c, 2, oldLocal)
				oldSpl := octree.GatherSplitters(c, oldLocal)

				pert := protectedPerturb(r, base, p, 8)
				bal := octree.Balance21Distributed(c, 2, ownChunk(pert.Leaves, oldSpl, c.Rank()), nil)
				dirty := octree.AddedLeaves(oldLocal, bal)

				want := New(c, 2, append([]sfc.Octant(nil), bal...))
				got, delta := Patch(c, 2, append([]sfc.Octant(nil), bal...), old, dirty)
				if got == nil {
					panic(fmt.Sprintf("p=%d seed=%d rank=%d: Patch fell back (splitters moved) — perturbation protection failed", p, seed, c.Rank()))
				}
				if err := meshEqual(got, want); err != nil {
					panic(fmt.Sprintf("p=%d seed=%d rank=%d: %v", p, seed, c.Rank(), err))
				}
				// Delta invariants: remap monotone over survivors; clean
				// elements really are clean; dirty nodes cover new ones.
				last := int32(-1)
				for _, ni := range delta.NodeRemap {
					if ni >= 0 {
						if ni <= last {
							panic("NodeRemap not monotone")
						}
						last = ni
					}
				}
				cpe := got.CornersPerElem()
				for e, oe := range delta.OldElem {
					if oe < 0 {
						continue
					}
					if !got.Elems[e].EqualKey(old.Elems[oe]) {
						panic("OldElem maps to different octant")
					}
					for cix := 0; cix < cpe; cix++ {
						ni, nw := got.Corner(e, cix)
						oi, ow := old.Corner(int(oe), cix)
						if len(ni) != len(oi) {
							panic("clean element changed constraint shape")
						}
						for k := range ni {
							if ni[k] != delta.NodeRemap[oi[k]] || nw[k] != ow[k] {
								panic("clean element conn does not remap cleanly")
							}
						}
					}
				}
				seen := make(map[int32]bool)
				for _, ni := range delta.NodeRemap {
					if ni >= 0 {
						seen[ni] = true
					}
				}
				for i := 0; i < got.NumLocal; i++ {
					if !seen[int32(i)] && !delta.DirtyNode[i] {
						panic("new node not flagged dirty")
					}
				}
			})
		}
	}
}

// A partition shift must be detected collectively and refuse to patch.
func TestPatchFallsBackOnSplitterDrift(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		base := octree.Uniform(2, 4)
		n := base.Len()
		oldLocal := append([]sfc.Octant(nil), base.Leaves[c.Rank()*n/2:(c.Rank()+1)*n/2]...)
		old := New(c, 2, oldLocal)
		// Shift the boundary by one leaf: rank 0 takes one more.
		cut := n/2 + 1
		var newLocal []sfc.Octant
		if c.Rank() == 0 {
			newLocal = append([]sfc.Octant(nil), base.Leaves[:cut]...)
		} else {
			newLocal = append([]sfc.Octant(nil), base.Leaves[cut:]...)
		}
		dirty := octree.AddedLeaves(oldLocal, newLocal)
		got, delta := Patch(c, 2, newLocal, old, dirty)
		if got != nil || delta != nil {
			panic("Patch accepted a moved partition")
		}
	})
}
