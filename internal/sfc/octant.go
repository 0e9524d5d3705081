// Package sfc implements dimension-agnostic (2D/3D) space-filling-curve
// octant keys for linearized octrees.
//
// An Octant is identified by the integer coordinates of its anchor (the
// corner closest to the origin) on a virtual uniform grid of 2^MaxLevel
// cells per side, together with its refinement level. Level 0 is the root
// octant covering the whole unit domain; an octant at level l has side
// length 2^(MaxLevel-l) in anchor units.
//
// The package provides the key algebra required by the meshing algorithms
// of Saurabh et al. (IPDPS 2023): parent/child/ancestor navigation, Morton
// (Z-order) comparison implemented with the most-significant-differing-bit
// trick, overlap and containment tests, and same-level neighbours.
package sfc

import "fmt"

// MaxLevel is the deepest refinement level representable. Anchor
// coordinates occupy MaxLevel bits, so a 3D Morton index fits in a uint64
// (3*21 = 63 bits).
const MaxLevel = 21

// MaxCoord is the number of anchor units per side of the root octant.
const MaxCoord uint32 = 1 << MaxLevel

// Octant is a node of a 2^d-tree, identified by anchor coordinates and
// level. The zero value is the 3D root octant with Dim left 0; use Root
// and Child to construct octants with an explicit dimension (2 or 3).
type Octant struct {
	X, Y, Z uint32 // anchor coordinates in units of the level-MaxLevel grid
	Level   uint8  // refinement level, 0 (root) .. MaxLevel
	Dim     uint8  // spatial dimension: 2 or 3
}

// Root returns the level-0 octant covering the whole domain.
func Root(dim int) Octant { return Octant{Dim: uint8(dim)} }

// Valid reports whether the octant's anchor lies inside the domain and is
// aligned to its level's grid.
func (o Octant) Valid() bool {
	if o.Dim != 2 && o.Dim != 3 {
		return false
	}
	if o.Level > MaxLevel {
		return false
	}
	mask := o.Side() - 1
	if o.X&mask != 0 || o.Y&mask != 0 || o.Z&mask != 0 {
		return false
	}
	if o.X >= MaxCoord || o.Y >= MaxCoord {
		return false
	}
	if o.Dim == 2 {
		return o.Z == 0
	}
	return o.Z < MaxCoord
}

// Side returns the octant's side length in anchor units.
func (o Octant) Side() uint32 { return 1 << (MaxLevel - uint(o.Level)) }

// NumChildren returns 2^d.
func (o Octant) NumChildren() int { return 1 << o.Dim }

// Parent returns the ancestor one level up. Parent of the root is the root.
func (o Octant) Parent() Octant {
	if o.Level == 0 {
		return o
	}
	return o.Ancestor(int(o.Level) - 1)
}

// Ancestor returns the ancestor at the given (coarser or equal) level.
func (o Octant) Ancestor(level int) Octant {
	if level < 0 || level > int(o.Level) {
		panic(fmt.Sprintf("sfc.Ancestor: level %d not in [0,%d]", level, o.Level))
	}
	mask := ^(uint32(1)<<(MaxLevel-uint(level)) - 1)
	return Octant{X: o.X & mask, Y: o.Y & mask, Z: o.Z & mask, Level: uint8(level), Dim: o.Dim}
}

// Child returns the i-th child (Morton order: bit 0 = x, bit 1 = y,
// bit 2 = z) one level finer.
func (o Octant) Child(i int) Octant {
	if o.Level >= MaxLevel {
		panic("sfc.Child: at MaxLevel")
	}
	if i < 0 || i >= o.NumChildren() {
		panic(fmt.Sprintf("sfc.Child: index %d out of range", i))
	}
	h := o.Side() >> 1
	c := Octant{X: o.X, Y: o.Y, Z: o.Z, Level: o.Level + 1, Dim: o.Dim}
	if i&1 != 0 {
		c.X += h
	}
	if i&2 != 0 {
		c.Y += h
	}
	if i&4 != 0 {
		c.Z += h
	}
	return c
}

// ChildIndex returns which child of its parent this octant is
// (Morton order), or 0 for the root.
func (o Octant) ChildIndex() int {
	if o.Level == 0 {
		return 0
	}
	h := o.Side()
	i := 0
	if o.X&h != 0 {
		i |= 1
	}
	if o.Y&h != 0 {
		i |= 2
	}
	if o.Dim == 3 && o.Z&h != 0 {
		i |= 4
	}
	return i
}

// IsAncestorOf reports whether o is a strict ancestor of p.
func (o Octant) IsAncestorOf(p Octant) bool {
	if o.Level >= p.Level {
		return false
	}
	return p.Ancestor(int(o.Level)).EqualKey(o)
}

// Overlaps reports whether o and p overlap, i.e. one is an ancestor of or
// equal to the other.
func (o Octant) Overlaps(p Octant) bool {
	if o.Level <= p.Level {
		return p.Ancestor(int(o.Level)).EqualKey(o)
	}
	return o.Ancestor(int(p.Level)).EqualKey(p)
}

// EqualKey reports whether o and p are the same octant (anchor and level).
func (o Octant) EqualKey(p Octant) bool {
	return o.X == p.X && o.Y == p.Y && o.Z == p.Z && o.Level == p.Level
}

// ContainsPoint reports whether the half-open region [anchor, anchor+side)
// contains the grid point (x, y, z).
func (o Octant) ContainsPoint(x, y, z uint32) bool {
	s := o.Side()
	in := x >= o.X && x < o.X+s && y >= o.Y && y < o.Y+s
	if o.Dim == 3 {
		in = in && z >= o.Z && z < o.Z+s
	}
	return in
}

// FirstDescendant returns the deepest-level descendant at the anchor corner.
func (o Octant) FirstDescendant() Octant {
	return Octant{X: o.X, Y: o.Y, Z: o.Z, Level: MaxLevel, Dim: o.Dim}
}

// LastDescendant returns the deepest-level descendant at the far corner.
func (o Octant) LastDescendant() Octant {
	d := o.Side() - 1
	l := Octant{X: o.X + d, Y: o.Y + d, Z: o.Z, Level: MaxLevel, Dim: o.Dim}
	if o.Dim == 3 {
		l.Z = o.Z + d
	}
	return l
}

// Neighbor returns the same-level neighbour displaced by (dx,dy,dz) octant
// side lengths (each in {-1,0,+1}) and true, or a zero octant and false if
// the neighbour falls outside the root domain.
func (o Octant) Neighbor(dx, dy, dz int) (Octant, bool) {
	s := int64(o.Side())
	nx := int64(o.X) + int64(dx)*s
	ny := int64(o.Y) + int64(dy)*s
	nz := int64(o.Z) + int64(dz)*s
	if o.Dim == 2 {
		nz = 0
		if dz != 0 {
			return Octant{}, false
		}
	}
	if nx < 0 || ny < 0 || nz < 0 || nx >= int64(MaxCoord) || ny >= int64(MaxCoord) || (o.Dim == 3 && nz >= int64(MaxCoord)) {
		return Octant{}, false
	}
	return Octant{X: uint32(nx), Y: uint32(ny), Z: uint32(nz), Level: o.Level, Dim: o.Dim}, true
}

// AllNeighbors appends to dst every existing same-level neighbour sharing a
// face, edge or corner with o (up to 3^d-1 octants) and returns dst.
func (o Octant) AllNeighbors(dst []Octant) []Octant {
	zlo, zhi := 0, 0
	if o.Dim == 3 {
		zlo, zhi = -1, 1
	}
	for dz := zlo; dz <= zhi; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				if n, ok := o.Neighbor(dx, dy, dz); ok {
					dst = append(dst, n)
				}
			}
		}
	}
	return dst
}

// String implements fmt.Stringer.
func (o Octant) String() string {
	if o.Dim == 2 {
		return fmt.Sprintf("oct2(%d,%d)@%d", o.X, o.Y, o.Level)
	}
	return fmt.Sprintf("oct3(%d,%d,%d)@%d", o.X, o.Y, o.Z, o.Level)
}
