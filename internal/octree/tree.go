// Package octree implements linearized, 2:1-balanced, possibly incomplete
// quad/octrees and the adaptive remeshing algorithms of Saurabh et al.
// (IPDPS 2023, Sec. II-C): multi-level refinement (Alg. 5), multi-level
// coarsening by descendant consensus (Alg. 6), distributed coarsening with
// partition-endpoint overlap exchange (Alg. 7), ripple 2:1 balancing
// (serial and distributed), and weighted SFC partitioning. The
// level-by-level refine/coarsen baselines live in the package's benchmark
// file, next to the ablation benchmarks that measure them.
package octree

import (
	"sort"

	"proteus/internal/sfc"
)

// Tree is a linearized (leaf-only) 2^d-tree: the Leaves slice is sorted in
// Morton order and pairwise non-overlapping. A Tree need not be complete
// (cover the whole root domain); incomplete trees arise from domain
// retention filters (Sec. II-C1b).
type Tree struct {
	Dim    int
	Leaves []sfc.Octant
}

// RetainFn decides whether an octant intersects the computational domain;
// octants for which it returns false are "void" and are discarded during
// refinement. A nil RetainFn keeps everything (complete tree).
type RetainFn func(sfc.Octant) bool

// Uniform returns the complete tree with every leaf at the given level.
func Uniform(dim, level int) *Tree {
	var out []sfc.Octant
	var rec func(o sfc.Octant)
	rec = func(o sfc.Octant) {
		if int(o.Level) == level {
			out = append(out, o)
			return
		}
		for c := 0; c < o.NumChildren(); c++ {
			rec(o.Child(c))
		}
	}
	rec(sfc.Root(dim))
	return &Tree{Dim: dim, Leaves: out}
}

// Build constructs a tree by recursive subdivision: an octant is split
// while splitFn returns true and its level is below maxLevel. Octants
// rejected by retain are discarded.
func Build(dim int, splitFn func(sfc.Octant) bool, maxLevel int, retain RetainFn) *Tree {
	var out []sfc.Octant
	var rec func(o sfc.Octant)
	rec = func(o sfc.Octant) {
		if retain != nil && !retain(o) {
			return
		}
		if int(o.Level) < maxLevel && splitFn(o) {
			for c := 0; c < o.NumChildren(); c++ {
				rec(o.Child(c))
			}
			return
		}
		out = append(out, o)
	}
	rec(sfc.Root(dim))
	return &Tree{Dim: dim, Leaves: out}
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return len(t.Leaves) }

// MinMaxLevel returns the coarsest and finest leaf levels (0,0 if empty).
func (t *Tree) MinMaxLevel() (min, max int) {
	if len(t.Leaves) == 0 {
		return 0, 0
	}
	min, max = int(t.Leaves[0].Level), int(t.Leaves[0].Level)
	for _, o := range t.Leaves {
		if int(o.Level) < min {
			min = int(o.Level)
		}
		if int(o.Level) > max {
			max = int(o.Level)
		}
	}
	return min, max
}

// LevelHistogram returns the fraction of leaves at each level up to the
// finest, as plotted in Fig. 9 of the paper.
func (t *Tree) LevelHistogram() []float64 {
	_, max := t.MinMaxLevel()
	h := make([]float64, max+1)
	if len(t.Leaves) == 0 {
		return h
	}
	for _, o := range t.Leaves {
		h[o.Level]++
	}
	for i := range h {
		h[i] /= float64(len(t.Leaves))
	}
	return h
}

// VolumeFractionAtLevel returns the fraction of the domain volume covered
// by leaves at exactly the given level.
func (t *Tree) VolumeFractionAtLevel(level int) float64 {
	var vol, tot float64
	for _, o := range t.Leaves {
		v := 1.0
		for d := 0; d < t.Dim; d++ {
			v *= float64(o.Side()) / float64(sfc.MaxCoord)
		}
		tot += v
		if int(o.Level) == level {
			vol += v
		}
	}
	if tot == 0 {
		return 0
	}
	return vol / tot
}

// OverlapRange returns the half-open index range [lo, hi) of leaves
// overlapping octant q. At most one leaf can overlap q as a strict
// ancestor; it is the predecessor of lo and is included in the range.
func (t *Tree) OverlapRange(q sfc.Octant) (lo, hi int) {
	lo = sort.Search(len(t.Leaves), func(i int) bool { return sfc.Compare(t.Leaves[i], q) >= 0 })
	last := q.LastDescendant()
	hi = sort.Search(len(t.Leaves), func(i int) bool { return sfc.Compare(t.Leaves[i], last) > 0 })
	if lo > 0 && t.Leaves[lo-1].IsAncestorOf(q) {
		lo--
	}
	return lo, hi
}

// FinestOverlappingLevel returns the maximum level among leaves overlapping
// q, or -1 if the region is void.
func (t *Tree) FinestOverlappingLevel(q sfc.Octant) int {
	lo, hi := t.OverlapRange(q)
	max := -1
	for i := lo; i < hi; i++ {
		if int(t.Leaves[i].Level) > max {
			max = int(t.Leaves[i].Level)
		}
	}
	return max
}
