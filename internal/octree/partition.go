package octree

import (
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// Splitters is the global partition table of a distributed forest: the
// first leaf of every non-empty rank. It answers ownership queries for
// ghost exchange, distributed balancing and inter-grid transfer.
type Splitters struct {
	size   int
	firsts []sfc.Octant // first leaf per rank (undefined where !has)
	has    []bool
}

// GatherSplitters allgathers the partition table of the distributed,
// globally sorted leaf array.
func GatherSplitters(c *par.Comm, leaves []sfc.Octant) Splitters {
	type entry struct {
		First sfc.Octant
		Has   bool
	}
	var e entry
	if len(leaves) > 0 {
		e = entry{leaves[0], true}
	}
	all := par.Allgather(c, e)
	s := Splitters{size: c.Size(), firsts: make([]sfc.Octant, c.Size()), has: make([]bool, c.Size())}
	for r, v := range all {
		s.firsts[r], s.has[r] = v.First, v.Has
	}
	return s
}

// Equal reports whether two splitter tables describe the same partition:
// the same set of non-empty ranks with the same first leaf each. Combined
// with an unchanged global forest this pins the local leaf lists; the
// incremental mesh patch uses it to decide whether node ownership is
// stable enough to reuse the old numbering.
func (s Splitters) Equal(o Splitters) bool {
	if s.size != o.size {
		return false
	}
	for r := 0; r < s.size; r++ {
		if s.has[r] != o.has[r] {
			return false
		}
		if s.has[r] && !s.firsts[r].EqualKey(o.firsts[r]) {
			return false
		}
	}
	return true
}

// Owner returns the rank whose leaf range contains the deepest-level point
// key q (compare with the first-descendant key of a leaf to locate it).
func (s Splitters) Owner(q sfc.Octant) int {
	owner := 0
	for r := 0; r < s.size; r++ {
		if !s.has[r] {
			continue
		}
		if sfc.Compare(s.firsts[r], q) <= 0 || s.firsts[r].IsAncestorOf(q) {
			owner = r
		} else {
			break
		}
	}
	return owner
}

// OwnerRuns invokes fn once per maximal run [lo, hi) of consecutive leaves
// sharing one owner under the table, in order. leaves must be sorted;
// ownership is monotone along the SFC, so the scan never revisits earlier
// ranks. This is the bulk routing primitive of the splitter-shift
// migration: whole surviving ranges move with one ownership decision
// instead of one Owner call per leaf.
func (s Splitters) OwnerRuns(leaves []sfc.Octant, fn func(lo, hi, owner int)) {
	if len(leaves) == 0 {
		return
	}
	lo := 0
	own := s.Owner(leaves[0].FirstDescendant())
	for i := 1; i < len(leaves); i++ {
		q := leaves[i].FirstDescendant()
		o := own
		for r := own + 1; r < s.size; r++ {
			if !s.has[r] {
				continue
			}
			if sfc.Compare(s.firsts[r], q) <= 0 || s.firsts[r].IsAncestorOf(q) {
				o = r
			} else {
				break
			}
		}
		if o != own {
			fn(lo, i, own)
			lo, own = i, o
		}
	}
	fn(lo, len(leaves), own)
}

// RangeOwners returns every rank whose leaf range may intersect the region
// covered by octant q (the Morton interval [q, q.LastDescendant]).
func (s Splitters) RangeOwners(q sfc.Octant) []int {
	lo := s.Owner(q.FirstDescendant())
	hi := s.Owner(q.LastDescendant())
	var out []int
	for r := lo; r <= hi; r++ {
		if s.has[r] || r == lo {
			out = append(out, r)
		}
	}
	return out
}

// PartitionWeighted redistributes the globally sorted leaves so that each
// rank receives a contiguous SFC range of approximately equal total
// weight, preserving global order. weights may be nil for unit weights.
// This is the standard SFC-partitioning step run after every remesh.
func PartitionWeighted(c *par.Comm, leaves []sfc.Octant, weights []float64) []sfc.Octant {
	p := c.Size()
	w := weights
	if w == nil {
		w = make([]float64, len(leaves))
		for i := range w {
			w[i] = 1
		}
	}
	var localW float64
	for _, v := range w {
		localW += v
	}
	myOff := par.Exscan(c, localW, 0, func(a, b float64) float64 { return a + b })
	totalW := par.Allreduce(c, localW, func(a, b float64) float64 { return a + b })
	if totalW == 0 {
		return leaves
	}
	bufs := make([][]sfc.Octant, p)
	prefix := myOff
	for i, o := range leaves {
		mid := prefix + w[i]/2
		r := int(mid / totalW * float64(p))
		if r >= p {
			r = p - 1
		}
		if r < 0 {
			r = 0
		}
		bufs[r] = append(bufs[r], o)
		prefix += w[i]
	}
	got := par.Alltoallv(c, bufs)
	var out []sfc.Octant
	for r := 0; r < p; r++ {
		out = append(out, got[r]...)
	}
	return out
}
