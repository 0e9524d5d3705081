package octree

import (
	"math"
	"sort"
	"testing"

	"proteus/internal/sfc"
)

// Sec. II-C1 ablation: multi-level against level-by-level refinement and
// coarsening (tree operations only; internal/transfer's
// BenchmarkTableI_Remesh* measures the transfer). The level-by-level
// baselines live here, next to the benchmarks that measure them, and are
// the oracles of TestRefineMatchesLevelByLevel and
// TestCoarsenMatchesLevelByLevel.

// refineLevelByLevel is the baseline the paper improves upon: octants are
// refined a single level per pass, with a full sort-and-linearize between
// passes, until every leaf reaches its target. The extra passes and sorts
// are the overhead Alg. 5 eliminates.
func (t *Tree) refineLevelByLevel(targets []int, retain RetainFn) *Tree {
	type job struct {
		oct    sfc.Octant
		target int
	}
	jobs := make([]job, len(t.Leaves))
	for i, o := range t.Leaves {
		jobs[i] = job{o, targets[i]}
	}
	for {
		changed := false
		next := make([]job, 0, len(jobs))
		for _, j := range jobs {
			if int(j.oct.Level) >= j.target {
				next = append(next, j)
				continue
			}
			changed = true
			for c := 0; c < j.oct.NumChildren(); c++ {
				ch := j.oct.Child(c)
				if retain != nil && !retain(ch) {
					continue
				}
				next = append(next, job{ch, j.target})
			}
		}
		// The level-by-level scheme re-linearizes after every pass; this
		// sort is the cost being measured, so it is performed even though
		// the pass preserves order.
		sort.Slice(next, func(i, j int) bool { return sfc.Less(next[i].oct, next[j].oct) })
		jobs = next
		if !changed {
			break
		}
	}
	out := make([]sfc.Octant, len(jobs))
	for i, j := range jobs {
		out[i] = j.oct
	}
	return &Tree{Dim: t.Dim, Leaves: out}
}

// coarsenLevelByLevel is the baseline: coarsen by a single level per pass
// (merging complete sibling groups whose members all allow it), iterating
// until no merge applies. Each pass rescans and re-linearizes the tree —
// the overhead Alg. 6 eliminates for deep coarsening.
func (t *Tree) coarsenLevelByLevel(targets []int) *Tree {
	type job struct {
		oct    sfc.Octant
		target int
	}
	jobs := make([]job, len(t.Leaves))
	for i, o := range t.Leaves {
		jobs[i] = job{o, targets[i]}
	}
	for {
		changed := false
		next := make([]job, 0, len(jobs))
		for i := 0; i < len(jobs); {
			o := jobs[i].oct
			nc := o.NumChildren()
			// A sibling group is mergeable iff all 2^d children of the same
			// parent are adjacent in the array, each allowing a coarser
			// level.
			if o.Level > 0 && o.ChildIndex() == 0 && i+nc <= len(jobs) {
				parent := o.Parent()
				ok := true
				for k := 0; k < nc; k++ {
					j := jobs[i+k]
					if !j.oct.EqualKey(parent.Child(k)) || j.target >= int(j.oct.Level) {
						ok = false
						break
					}
				}
				if ok {
					maxTarget := 0
					for k := 0; k < nc; k++ {
						if jobs[i+k].target > maxTarget {
							maxTarget = jobs[i+k].target
						}
					}
					next = append(next, job{parent, maxTarget})
					i += nc
					changed = true
					continue
				}
			}
			next = append(next, jobs[i])
			i++
		}
		jobs = next
		if !changed {
			break
		}
	}
	out := make([]sfc.Octant, len(jobs))
	for i, j := range jobs {
		out[i] = j.oct
	}
	return &Tree{Dim: t.Dim, Leaves: out}
}

// deepTargets asks every leaf inside a disc of radius 0.2 about the centre
// to refine by jump levels.
func deepTargets(t *Tree, jump int) []int {
	targets := make([]int, t.Len())
	for i, o := range t.Leaves {
		targets[i] = int(o.Level)
		s := float64(o.Side()) / float64(sfc.MaxCoord)
		x := float64(o.X)/float64(sfc.MaxCoord) + s/2
		y := float64(o.Y)/float64(sfc.MaxCoord) + s/2
		if math.Hypot(x-0.5, y-0.5) < 0.2 {
			targets[i] = int(o.Level) + jump
		}
	}
	return targets
}

func BenchmarkRefine_MultiLevel(b *testing.B) {
	tr := Uniform(2, 5)
	targets := deepTargets(tr, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Refine(targets, nil)
	}
}

func BenchmarkRefine_LevelByLevel(b *testing.B) {
	tr := Uniform(2, 5)
	targets := deepTargets(tr, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.refineLevelByLevel(targets, nil)
	}
}

// uniformTargets asks every leaf of t to coarsen to level.
func uniformTargets(t *Tree, level int) []int {
	targets := make([]int, t.Len())
	for i := range targets {
		targets[i] = level
	}
	return targets
}

func BenchmarkCoarsen_MultiLevel(b *testing.B) {
	fine := Uniform(2, 8)
	targets := uniformTargets(fine, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fine.Coarsen(targets)
	}
}

func BenchmarkCoarsen_LevelByLevel(b *testing.B) {
	fine := Uniform(2, 8)
	targets := uniformTargets(fine, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fine.coarsenLevelByLevel(targets)
	}
}
