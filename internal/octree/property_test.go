package octree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBalance21Idempotent(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randTree(r, 2, 6, 0.4).Balance21(nil)
		again := tr.Balance21(nil)
		if again.Len() != tr.Len() {
			return false
		}
		for i := range tr.Leaves {
			if !tr.Leaves[i].EqualKey(again.Leaves[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 15})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoarsenIdentityWhenTargetsEqualLevels(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randTree(r, 2, 5, 0.5)
		targets := make([]int, tr.Len())
		for i, o := range tr.Leaves {
			targets[i] = int(o.Level)
		}
		out := tr.Coarsen(targets)
		if out.Len() != tr.Len() {
			return false
		}
		for i := range out.Leaves {
			if !out.Leaves[i].EqualKey(tr.Leaves[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRefinePreservesVolume(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 2 + int(seed&1)
		maxL := 5
		if dim == 3 {
			maxL = 3
		}
		tr := randTree(r, dim, maxL, 0.4)
		targets := make([]int, tr.Len())
		for i, o := range tr.Leaves {
			targets[i] = int(o.Level) + r.Intn(3)
		}
		out := tr.Refine(targets, nil)
		return out.IsComplete() && out.Validate() == nil
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoarsenNeverFinerThanInput(t *testing.T) {
	// Every output octant of Coarsen is an input leaf or an ancestor of
	// input leaves — never finer than the finest input covering it.
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randTree(r, 2, 5, 0.5)
		targets := make([]int, tr.Len())
		for i, o := range tr.Leaves {
			targets[i] = int(o.Level) - r.Intn(int(o.Level)+1)
		}
		out := tr.Coarsen(targets)
		if !out.IsComplete() || out.Validate() != nil {
			return false
		}
		for _, o := range out.Leaves {
			lo, hi := tr.OverlapRange(o)
			if lo >= hi {
				return false
			}
			for i := lo; i < hi; i++ {
				in := tr.Leaves[i]
				// o covers in (or equals it): level(o) <= level(in), and
				// coarsening must respect in's vote.
				if int(o.Level) > int(in.Level) {
					return false
				}
				if int(o.Level) < targets[i] {
					return false // coarsened beyond what the leaf allowed
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLevelHistogramSumsToOne(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		tr := randTree(r, 2, 5, 0.5)
		h := tr.LevelHistogram()
		var s float64
		for _, v := range h {
			s += v
		}
		if s < 0.999999 || s > 1.000001 {
			t.Fatalf("histogram sums to %v", s)
		}
	}
}
