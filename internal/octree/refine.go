package octree

import (
	"fmt"

	"proteus/internal/sfc"
)

// Refine replaces each leaf by its descendants at the requested level in a
// single pass (Algorithm 5 of the paper): the SFC-order recursion over each
// leaf's subtree emits descendants already sorted, so no re-sort is needed
// regardless of how many levels each leaf is refined by. Leaves whose
// target is at or below their current level are kept unchanged (use
// Coarsen to go coarser). Descendants rejected by retain — void octants of
// incomplete domains — are discarded.
//
// targets must have one entry per leaf.
func (t *Tree) Refine(targets []int, retain RetainFn) *Tree {
	if len(targets) != len(t.Leaves) {
		panic(fmt.Sprintf("octree.Refine: %d targets for %d leaves", len(targets), len(t.Leaves)))
	}
	out := make([]sfc.Octant, 0, len(t.Leaves))
	var emit func(o sfc.Octant, target int)
	emit = func(o sfc.Octant, target int) {
		if retain != nil && !retain(o) {
			return
		}
		if int(o.Level) >= target {
			out = append(out, o)
			return
		}
		for c := 0; c < o.NumChildren(); c++ {
			emit(o.Child(c), target)
		}
	}
	for i, leaf := range t.Leaves {
		target := targets[i]
		if target > sfc.MaxLevel {
			target = sfc.MaxLevel
		}
		emit(leaf, target)
	}
	return &Tree{Dim: t.Dim, Leaves: out}
}
