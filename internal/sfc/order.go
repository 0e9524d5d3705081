package sfc

import "sort"

// Less reports whether a precedes b in the Morton (Z-order) space-filling
// curve ordering of the linearized tree. Ancestors precede descendants
// (pre-order), and disjoint octants compare by the Morton order of their
// regions.
//
// The comparison uses the most-significant-differing-bit trick (Chan 2002):
// among the per-dimension XORs of the anchors, the dimension whose XOR has
// the highest set bit decides the order.
func Less(a, b Octant) bool { return Compare(a, b) < 0 }

// Compare returns -1, 0 or +1 ordering a against b on the Morton curve.
// Equal anchors order the coarser (ancestor) octant first.
func Compare(a, b Octant) int {
	if a.X == b.X && a.Y == b.Y && a.Z == b.Z {
		switch {
		case a.Level < b.Level:
			return -1
		case a.Level > b.Level:
			return 1
		default:
			return 0
		}
	}
	// Dimension priority for ties follows child-index bit order: z highest.
	hx := a.X ^ b.X
	hy := a.Y ^ b.Y
	hz := a.Z ^ b.Z
	// Find the dimension with the most significant differing bit. On MSB
	// ties the higher dimension wins, matching z-major bit interleaving.
	dim, h := 0, hx
	if !msbLess(hy, h) {
		dim, h = 1, hy
	}
	if !msbLess(hz, h) {
		dim, h = 2, hz
	}
	_ = h
	var av, bv uint32
	switch dim {
	case 0:
		av, bv = a.X, b.X
	case 1:
		av, bv = a.Y, b.Y
	default:
		av, bv = a.Z, b.Z
	}
	if av < bv {
		return -1
	}
	return 1
}

// msbLess reports whether the most significant set bit of a is strictly
// below that of b.
func msbLess(a, b uint32) bool { return a < b && a < (a^b) }

// Sort sorts octants in Morton order, ancestors first.
func Sort(octs []Octant) {
	sort.Slice(octs, func(i, j int) bool { return Less(octs[i], octs[j]) })
}
