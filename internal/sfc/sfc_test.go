package sfc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// New returns the octant at the given anchor and level in dim dimensions.
// It panics if the anchor is not aligned to the level's grid.
func New(dim int, x, y, z uint32, level int) Octant {
	o := Octant{X: x, Y: y, Z: z, Level: uint8(level), Dim: uint8(dim)}
	if !o.Valid() {
		panic(fmt.Sprintf("sfc.New: invalid octant dim=%d anchor=(%d,%d,%d) level=%d", dim, x, y, z, level))
	}
	return o
}

// MortonIndex returns the Morton code of the octant's anchor at MaxLevel
// resolution: bits of x, y (, z) interleaved with x least significant.
// For 3D this occupies 3*MaxLevel = 63 bits.
func MortonIndex(o Octant) uint64 {
	if o.Dim == 2 {
		return interleave2(uint64(o.X), uint64(o.Y))
	}
	return interleave3(uint64(o.X), uint64(o.Y), uint64(o.Z))
}

func interleave2(x, y uint64) uint64 {
	return spread2(x) | spread2(y)<<1
}

// spread2 spaces the low 32 bits of v one bit apart.
func spread2(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

func interleave3(x, y, z uint64) uint64 {
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

// spread3 spaces the low 21 bits of v two bits apart.
func spread3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x001f00000000ffff
	v = (v | v<<16) & 0x001f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// randOctant returns a valid random octant in dim dimensions.
func randOctant(r *rand.Rand, dim int) Octant {
	level := r.Intn(MaxLevel + 1)
	o := Root(dim)
	for l := 0; l < level; l++ {
		o = o.Child(r.Intn(o.NumChildren()))
	}
	return o
}

func TestRootProperties(t *testing.T) {
	for _, dim := range []int{2, 3} {
		r := Root(dim)
		if r.Level != 0 || r.Side() != MaxCoord {
			t.Fatalf("dim %d: bad root %v", dim, r)
		}
		if !r.Valid() {
			t.Fatalf("dim %d: root invalid", dim)
		}
		if r.Parent() != r {
			t.Fatalf("dim %d: parent of root must be root", dim)
		}
	}
}

func TestChildParentRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, dim := range []int{2, 3} {
		for iter := 0; iter < 2000; iter++ {
			o := randOctant(r, dim)
			if o.Level == MaxLevel {
				continue
			}
			for c := 0; c < o.NumChildren(); c++ {
				ch := o.Child(c)
				if ch.Parent() != o {
					t.Fatalf("child %d of %v: parent %v", c, o, ch.Parent())
				}
				if ch.ChildIndex() != c {
					t.Fatalf("child %d of %v: index %d", c, o, ch.ChildIndex())
				}
				if !o.IsAncestorOf(ch) {
					t.Fatalf("%v not ancestor of child %v", o, ch)
				}
				if !o.Overlaps(ch) || !ch.Overlaps(o) {
					t.Fatalf("overlap not symmetric for %v, %v", o, ch)
				}
			}
		}
	}
}

func TestAncestorLevels(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 1000; iter++ {
		o := randOctant(r, 3)
		for l := 0; l <= int(o.Level); l++ {
			a := o.Ancestor(l)
			if int(a.Level) != l {
				t.Fatalf("ancestor level %d got %d", l, a.Level)
			}
			if l < int(o.Level) && !a.IsAncestorOf(o) {
				t.Fatalf("%v not ancestor of %v", a, o)
			}
			if !a.ContainsPoint(o.X, o.Y, o.Z) {
				t.Fatalf("%v does not contain anchor of %v", a, o)
			}
		}
	}
}

func TestCompareMatchesMortonIndex(t *testing.T) {
	// For equal-level octants, Compare must agree with interleaved Morton
	// codes — this validates the MSB-XOR trick against the ground truth.
	r := rand.New(rand.NewSource(3))
	for _, dim := range []int{2, 3} {
		for iter := 0; iter < 5000; iter++ {
			a := randOctant(r, dim)
			b := randOctant(r, dim)
			ma, mb := MortonIndex(a), MortonIndex(b)
			cmp := Compare(a, b)
			switch {
			case ma < mb:
				if cmp >= 0 {
					t.Fatalf("dim %d: %v < %v by Morton but Compare=%d", dim, a, b, cmp)
				}
			case ma > mb:
				if cmp <= 0 {
					t.Fatalf("dim %d: %v > %v by Morton but Compare=%d", dim, a, b, cmp)
				}
			default:
				// Same anchor path: coarser must come first.
				if (a.Level < b.Level) != (cmp < 0) && a.Level != b.Level {
					t.Fatalf("dim %d: tie-break wrong for %v vs %v: %d", dim, a, b, cmp)
				}
			}
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	cfg := &quick.Config{MaxCount: 3000}
	r := rand.New(rand.NewSource(4))
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b, c := randOctant(rr, 3), randOctant(rr, 3), randOctant(rr, 3)
		// Antisymmetry.
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		// Transitivity.
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		// Reflexivity.
		return Compare(a, a) == 0
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestAncestorsPrecedeDescendants(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 2000; iter++ {
		o := randOctant(r, 3)
		if o.Level == 0 {
			continue
		}
		a := o.Ancestor(r.Intn(int(o.Level)))
		if !Less(a, o) {
			t.Fatalf("ancestor %v must precede %v", a, o)
		}
	}
}

func TestDescendantRangeContiguity(t *testing.T) {
	// All descendants of an octant form a contiguous Morton range
	// [o, o.LastDescendant]; any octant outside the subtree sorts outside.
	r := rand.New(rand.NewSource(6))
	for iter := 0; iter < 2000; iter++ {
		o := randOctant(r, 2)
		d := randOctant(r, 2)
		last := o.LastDescendant()
		inRange := Compare(o, d) <= 0 && Compare(d, last) <= 0
		isDesc := o.EqualKey(d) || o.IsAncestorOf(d)
		if isDesc && !inRange {
			t.Fatalf("descendant %v of %v outside range", d, o)
		}
		if !isDesc && inRange && !d.IsAncestorOf(o) {
			t.Fatalf("non-descendant %v of %v inside range", d, o)
		}
	}
}

func TestNeighborGeometry(t *testing.T) {
	o := New(3, 0, 0, 0, 2) // corner octant
	var ns []Octant
	ns = o.AllNeighbors(ns)
	if len(ns) != 7 {
		t.Fatalf("corner octant should have 7 neighbours, got %d", len(ns))
	}
	// Interior octant has 26 neighbours in 3D.
	side := o.Side()
	in := New(3, side, side, side, 2)
	ns = in.AllNeighbors(ns[:0])
	if len(ns) != 26 {
		t.Fatalf("interior 3D octant should have 26 neighbours, got %d", len(ns))
	}
	// 2D interior octant has 8.
	q := New(2, side, side, 0, 2)
	ns = q.AllNeighbors(ns[:0])
	if len(ns) != 8 {
		t.Fatalf("interior 2D octant should have 8 neighbours, got %d", len(ns))
	}
}

func TestNeighborSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		o := randOctant(r, 3)
		var ns []Octant
		for _, n := range o.AllNeighbors(ns) {
			found := false
			var back []Octant
			for _, m := range n.AllNeighbors(back) {
				if m.EqualKey(o) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbour relation not symmetric: %v, %v", o, n)
			}
		}
	}
}

func TestSortIsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	octs := make([]Octant, 500)
	for i := range octs {
		octs[i] = randOctant(r, 3)
	}
	Sort(octs)
	if !sort.SliceIsSorted(octs, func(i, j int) bool { return Less(octs[i], octs[j]) }) {
		t.Fatal("Sort did not sort")
	}
}

func TestContainsPoint(t *testing.T) {
	o := New(2, 0, 0, 0, 1) // lower-left quadrant
	half := MaxCoord / 2
	if !o.ContainsPoint(0, 0, 0) || !o.ContainsPoint(half-1, half-1, 0) {
		t.Fatal("quadrant must contain interior points")
	}
	if o.ContainsPoint(half, 0, 0) || o.ContainsPoint(0, half, 0) {
		t.Fatal("quadrant must not contain far-edge points")
	}
}
