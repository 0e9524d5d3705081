package octree

import (
	"fmt"

	"proteus/internal/sfc"
)

// The forest invariants the tests check results against. Production
// forests are built sorted and linear by construction, so none of these
// runs outside tests.

// New returns a tree over the given leaves, sorting and linearizing them.
func New(dim int, leaves []sfc.Octant) *Tree {
	t := &Tree{Dim: dim, Leaves: leaves}
	t.Linearize()
	return t
}

// Linearize sorts the leaves in Morton order and removes overlaps, keeping
// the finer octant whenever an ancestor/descendant pair is present.
func (t *Tree) Linearize() {
	sfc.Sort(t.Leaves)
	src := t.Leaves
	out := src[:0]
	for _, o := range src {
		// In sorted order an overlapping predecessor is an ancestor (or a
		// duplicate) of o; drop it to keep the finer octant.
		for len(out) > 0 && out[len(out)-1].Overlaps(o) {
			out = out[:len(out)-1]
		}
		out = append(out, o)
	}
	t.Leaves = out
}

// Validate checks the linearization invariants and returns an error
// describing the first violation.
func (t *Tree) Validate() error {
	for i, o := range t.Leaves {
		if !o.Valid() || int(o.Dim) != t.Dim {
			return fmt.Errorf("leaf %d invalid: %v", i, o)
		}
		if i > 0 {
			prev := t.Leaves[i-1]
			if !sfc.Less(prev, o) {
				return fmt.Errorf("leaves %d,%d out of order: %v !< %v", i-1, i, prev, o)
			}
			if prev.Overlaps(o) {
				return fmt.Errorf("leaves %d,%d overlap: %v, %v", i-1, i, prev, o)
			}
		}
	}
	return nil
}

// IsComplete reports whether the leaves exactly cover the root domain.
func (t *Tree) IsComplete() bool {
	var vol uint64
	for _, o := range t.Leaves {
		v := uint64(1)
		for d := 0; d < t.Dim; d++ {
			v *= uint64(o.Side())
		}
		vol += v
	}
	full := uint64(1)
	for d := 0; d < t.Dim; d++ {
		full *= uint64(sfc.MaxCoord)
	}
	return vol == full
}

// IsBalanced21 reports whether the tree satisfies the full 2:1 condition.
func (t *Tree) IsBalanced21() bool {
	var nbuf [26]sfc.Octant
	for _, o := range t.Leaves {
		for _, n := range o.AllNeighbors(nbuf[:0]) {
			j := t.PointLocate(n.X, n.Y, n.Z)
			if j >= 0 && int(t.Leaves[j].Level) < int(o.Level)-1 {
				return false
			}
		}
	}
	return true
}
