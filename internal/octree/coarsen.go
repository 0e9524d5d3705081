package octree

import (
	"fmt"

	"proteus/internal/sfc"
)

// Coarsen replaces leaves by ancestors subject to descendant consensus
// (Algorithm 6 of the paper). targets[i] is the coarsest acceptable level
// for leaf i (targets[i] <= leaf level). An ancestor A is emitted iff
// (i) no descendant of A requires a level finer than A — i.e. A's level is
// at least the maximum target voted by any input leaf under it — and
// (ii) the same cannot be said of A's parent, so coarsening is maximal.
//
// The traversal iterates over the sorted input exactly once, emitting and
// retracting child outputs per subtree, which is what allows coarsening by
// arbitrarily many levels in a single pass.
//
// Subtrees containing no input leaves are void (incomplete trees). A
// parent octant is never emitted over a void child subtree, preserving the
// domain shape.
func (t *Tree) Coarsen(targets []int) *Tree {
	if len(targets) != len(t.Leaves) {
		panic(fmt.Sprintf("octree.Coarsen: %d targets for %d leaves", len(targets), len(t.Leaves)))
	}
	c := &coarsener{in: t.Leaves, targets: targets}
	if len(t.Leaves) > 0 {
		c.visit(sfc.Root(t.Dim))
	}
	if c.i != len(c.in) {
		panic("octree.Coarsen: input not consumed; tree not linearized?")
	}
	return &Tree{Dim: t.Dim, Leaves: c.out}
}

type coarsener struct {
	in      []sfc.Octant
	targets []int
	i       int
	out     []sfc.Octant
}

// visit traverses the subtree rooted at R and returns the finest level any
// input leaf under R insists on (its coarsening vote), and whether the
// subtree contains any input at all.
func (c *coarsener) visit(R sfc.Octant) (coarsenTo int, occupied bool) {
	if c.i >= len(c.in) || !R.Overlaps(c.in[c.i]) {
		return 0, false // void subtree: no constraint, nothing emitted
	}
	if R.EqualKey(c.in[c.i]) {
		c.out = append(c.out, R)
		coarsenTo = c.targets[c.i]
		if coarsenTo > int(R.Level) {
			coarsenTo = int(R.Level) // a leaf never votes finer than itself
		}
		c.i++
		return coarsenTo, true
	}
	// R is a strict ancestor of the current input leaf: recurse.
	preSize := len(c.out)
	allOccupied := true
	anyOccupied := false
	coarsenTo = 0
	for ch := 0; ch < R.NumChildren(); ch++ {
		lc, occ := c.visit(R.Child(ch))
		if occ {
			anyOccupied = true
			if lc > coarsenTo {
				coarsenTo = lc
			}
		} else {
			allOccupied = false
		}
	}
	if allOccupied && coarsenTo <= int(R.Level) {
		// Consensus reached: retract the children's output and emit R.
		c.out = append(c.out[:preSize], R)
	}
	return coarsenTo, anyOccupied
}
