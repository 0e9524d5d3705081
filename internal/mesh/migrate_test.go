package mesh

import (
	"fmt"
	"math/rand"
	"testing"

	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// shiftedChunk deals a globally known leaf list into p contiguous ranges
// whose interior boundaries are pushed off the even split, so the new
// partition's splitters provably differ from an even one.
func shiftedChunk(leaves []sfc.Octant, rank, p, shift int) []sfc.Octant {
	n := len(leaves)
	cut := func(k int) int {
		c := k * n / p
		if k > 0 && k < p {
			c += shift
			if c > n {
				c = n
			}
		}
		return c
	}
	return append([]sfc.Octant(nil), leaves[cut(rank):cut(rank+1)]...)
}

// TestPatchMigratedMatchesNew is the headline invariant of the
// splitter-shift path: migrate-then-patch over a perturbed forest with a
// deliberately moved partition must reproduce mesh.New field for field,
// at 1, 2 and 4 ranks.
func TestPatchMigratedMatchesNew(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for seed := int64(0); seed < 3; seed++ {
			par.Run(p, func(c *par.Comm) {
				r := rand.New(rand.NewSource(seed))
				base := octree.Build(2, func(o sfc.Octant) bool { return r.Float64() < 0.45 }, 6, nil).Balance21(nil)
				oldLocal := shiftedChunk(base.Leaves, c.Rank(), p, 0)
				old := New(c, 2, oldLocal)
				oldSpl := octree.GatherSplitters(c, oldLocal)

				// Unprotected perturbation + a shifted re-chunking: the
				// partition boundaries move by construction.
				ct := make([]int, base.Len())
				for i, o := range base.Leaves {
					ct[i] = int(o.Level)
					if o.Level > 0 && r.Float64() < 0.06 {
						ct[i]--
					}
				}
				pert := base.Coarsen(ct)
				rt := make([]int, pert.Len())
				for i, o := range pert.Leaves {
					rt[i] = int(o.Level)
					if r.Float64() < 0.06 {
						rt[i]++
					}
				}
				bal := pert.Refine(rt, nil).Balance21(nil)
				newLocal := shiftedChunk(bal.Leaves, c.Rank(), p, 5)
				newSpl := octree.GatherSplitters(c, newLocal)
				if p > 1 && newSpl.Equal(oldSpl) {
					panic(fmt.Sprintf("p=%d seed=%d: shifted chunking left the splitters equal", p, seed))
				}
				// Patch itself must decline this round.
				if p > 1 {
					dirty := octree.AddedLeaves(oldLocal, newLocal)
					if got, _ := Patch(c, 2, newLocal, old, dirty); got != nil {
						panic("Patch accepted a moved partition")
					}
				}

				want := New(c, 2, shiftedChunk(bal.Leaves, c.Rank(), p, 5))
				got, view, delta := PatchMigrated(old, newLocal)
				if err := meshEqual(got, want); err != nil {
					panic(fmt.Sprintf("p=%d seed=%d rank=%d: %v", p, seed, c.Rank(), err))
				}
				// The view spans old's forest under the new splitters: its
				// global leaf sequence is old's, each leaf on its new owner.
				allView := par.Allgatherv(c, view.Elems)
				allOld := par.Allgatherv(c, old.Elems)
				if len(allView) != len(allOld) {
					panic("view forest size differs from old forest")
				}
				for i := range allOld {
					if !allView[i].EqualKey(allOld[i]) {
						panic("view forest is not old's forest")
					}
				}
				for _, o := range view.Elems {
					if own := newSpl.Owner(o.FirstDescendant()); own != c.Rank() {
						panic(fmt.Sprintf("view element owned by %d held on %d", own, c.Rank()))
					}
				}

				// Composed-delta invariants. The remap is not globally
				// monotone under re-ownership; instead every surviving clean
				// element must remap cleanly, and every node without a
				// mapped old counterpart must be dirty.
				cpe := got.CornersPerElem()
				for e, oe := range delta.OldElem {
					if oe < 0 {
						continue
					}
					if !got.Elems[e].EqualKey(old.Elems[oe]) {
						panic("OldElem maps to a different octant")
					}
					clean := true
					for cix := 0; cix < cpe && clean; cix++ {
						idx, _ := got.Corner(e, cix)
						for _, i := range idx {
							if delta.DirtyNode[i] {
								clean = false
								break
							}
						}
					}
					if !clean {
						continue
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
						panic("unmapped new node not flagged dirty")
					}
				}
			})
		}
	}
}

// A pure splitter drift over an unchanged forest — the exact round Patch
// refuses — must come out of PatchMigrated bitwise identical to a
// from-scratch build.
func TestPatchMigratedPureDrift(t *testing.T) {
	for _, p := range []int{2, 4} {
		par.Run(p, func(c *par.Comm) {
			base := octree.Uniform(2, 4)
			oldLocal := shiftedChunk(base.Leaves, c.Rank(), p, 0)
			old := New(c, 2, oldLocal)
			newLocal := shiftedChunk(base.Leaves, c.Rank(), p, 2)
			if got, _ := Patch(c, 2, newLocal, old, octree.AddedLeaves(oldLocal, newLocal)); got != nil {
				panic("Patch accepted a moved partition")
			}
			want := New(c, 2, shiftedChunk(base.Leaves, c.Rank(), p, 2))
			got, view, _ := PatchMigrated(old, newLocal)
			if err := meshEqual(got, want); err != nil {
				panic(fmt.Sprintf("p=%d rank=%d: %v", p, c.Rank(), err))
			}
			// With an unchanged forest the view IS the new mesh's forest.
			if err := meshEqual(view, want); err != nil {
				panic(fmt.Sprintf("p=%d rank=%d: view differs from target mesh: %v", p, c.Rank(), err))
			}
		})
	}
}
