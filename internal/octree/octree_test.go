package octree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"proteus/internal/sfc"
)

// randTree builds a random adaptive tree by probabilistic splitting.
func randTree(r *rand.Rand, dim, maxLevel int, pSplit float64) *Tree {
	return Build(dim, func(o sfc.Octant) bool {
		return r.Float64() < pSplit
	}, maxLevel, nil)
}

func TestUniformTree(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for level := 0; level <= 3; level++ {
			tr := Uniform(dim, level)
			want := 1
			for d := 0; d < dim; d++ {
				want *= 1 << level
			}
			if tr.Len() != want {
				t.Fatalf("dim=%d level=%d: %d leaves want %d", dim, level, tr.Len(), want)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if !tr.IsComplete() {
				t.Fatal("uniform tree must be complete")
			}
		}
	}
}

func TestBuildValidComplete(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		tr := randTree(r, 2+iter%2, 6, 0.5)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if !tr.IsComplete() {
			t.Fatal("Build without retain must be complete")
		}
	}
}

func TestLinearizeRemovesOverlaps(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 50; iter++ {
		// Random octants with ancestors sprinkled in.
		var octs []sfc.Octant
		base := randTree(r, 2, 5, 0.4)
		octs = append(octs, base.Leaves...)
		for i := 0; i < 20 && len(base.Leaves) > 0; i++ {
			o := base.Leaves[r.Intn(len(base.Leaves))]
			octs = append(octs, o.Ancestor(r.Intn(int(o.Level)+1)))
		}
		tr := New(2, octs)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		// Every original (finest) leaf must survive.
		for _, o := range base.Leaves {
			lo, hi := tr.OverlapRange(o)
			found := false
			for i := lo; i < hi; i++ {
				if tr.Leaves[i].EqualKey(o) {
					found = true
				}
			}
			if !found {
				t.Fatalf("finest leaf %v lost in linearization", o)
			}
		}
	}
}

func TestRefineSingleAndMultiLevel(t *testing.T) {
	tr := Uniform(2, 2) // 16 leaves
	targets := make([]int, tr.Len())
	for i := range targets {
		targets[i] = 2
	}
	targets[0] = 5 // refine first leaf 3 levels down
	out := tr.Refine(targets, nil)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 15 + 64 // 15 untouched + 4^3 descendants
	if out.Len() != want {
		t.Fatalf("got %d leaves want %d", out.Len(), want)
	}
	if !out.IsComplete() {
		t.Fatal("refined tree must stay complete")
	}
}

func TestRefineMatchesLevelByLevel(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 20; iter++ {
		dim := 2 + iter%2
		tr := randTree(r, dim, 4, 0.4)
		targets := make([]int, tr.Len())
		for i, o := range tr.Leaves {
			targets[i] = int(o.Level) + r.Intn(4)
			if targets[i] > 7 {
				targets[i] = 7
			}
		}
		a := tr.Refine(targets, nil)
		b := tr.refineLevelByLevel(targets, nil)
		if a.Len() != b.Len() {
			t.Fatalf("iter %d: multi-level %d leaves, level-by-level %d", iter, a.Len(), b.Len())
		}
		for i := range a.Leaves {
			if !a.Leaves[i].EqualKey(b.Leaves[i]) {
				t.Fatalf("iter %d: leaf %d differs", iter, i)
			}
		}
	}
}

func TestRefineOutputSorted(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randTree(r, 2, 4, 0.5)
		targets := make([]int, tr.Len())
		for i, o := range tr.Leaves {
			targets[i] = int(o.Level) + r.Intn(3)
		}
		out := tr.Refine(targets, nil)
		return out.Validate() == nil && out.IsComplete()
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRefineRetainDiscardsVoid(t *testing.T) {
	// Retain only octants intersecting the left half of the domain.
	half := sfc.MaxCoord / 2
	retain := func(o sfc.Octant) bool { return o.X < half }
	tr := Uniform(2, 1)
	targets := []int{3, 3, 3, 3}
	out := tr.Refine(targets, retain)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, o := range out.Leaves {
		if o.X >= half {
			t.Fatalf("void octant %v not discarded", o)
		}
	}
	if out.IsComplete() {
		t.Fatal("retained tree must be incomplete")
	}
}

func TestCoarsenFullMerge(t *testing.T) {
	tr := Uniform(2, 3) // 64 leaves
	targets := make([]int, tr.Len())
	// Everyone allows coarsening to level 0.
	out := tr.Coarsen(targets)
	if out.Len() != 1 || out.Leaves[0].Level != 0 {
		t.Fatalf("expected full collapse to root, got %d leaves", out.Len())
	}
}

func TestCoarsenConsensusVeto(t *testing.T) {
	tr := Uniform(2, 2) // 16 leaves at level 2
	targets := make([]int, tr.Len())
	for i := range targets {
		targets[i] = 0
	}
	// One leaf refuses to coarsen past level 2: its entire ancestor chain
	// is vetoed, but sibling subtrees elsewhere still merge.
	targets[5] = 2
	out := tr.Coarsen(targets)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if !out.IsComplete() {
		t.Fatal("coarsened tree must stay complete")
	}
	// Leaf 5 is in the second level-1 quadrant; the other three quadrants
	// merge to level 1 but cannot merge to root (veto), so expected:
	// 3 quadrants at level 1 + 4 leaves of the vetoed quadrant at level 2.
	if out.Len() != 7 {
		t.Fatalf("got %d leaves want 7", out.Len())
	}
	levels := map[int]int{}
	for _, o := range out.Leaves {
		levels[int(o.Level)]++
	}
	if levels[1] != 3 || levels[2] != 4 {
		t.Fatalf("level census %v", levels)
	}
}

func TestCoarsenMultiLevelSinglePass(t *testing.T) {
	// A deep uniform region must collapse several levels at once.
	tr := Uniform(2, 4)
	targets := make([]int, tr.Len())
	for i := range targets {
		targets[i] = 1
	}
	out := tr.Coarsen(targets)
	if out.Len() != 4 {
		t.Fatalf("expected 4 level-1 leaves, got %d", out.Len())
	}
	for _, o := range out.Leaves {
		if o.Level != 1 {
			t.Fatalf("leaf %v not at level 1", o)
		}
	}
}

func TestCoarsenMatchesLevelByLevel(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for iter := 0; iter < 20; iter++ {
		dim := 2 + iter%2
		tr := randTree(r, dim, 4, 0.5)
		targets := make([]int, tr.Len())
		for i, o := range tr.Leaves {
			targets[i] = int(o.Level) - r.Intn(int(o.Level)+1)
		}
		a := tr.Coarsen(targets)
		b := tr.coarsenLevelByLevel(targets)
		if a.Len() != b.Len() {
			t.Fatalf("iter %d: consensus %d leaves, level-by-level %d", iter, a.Len(), b.Len())
		}
		for i := range a.Leaves {
			if !a.Leaves[i].EqualKey(b.Leaves[i]) {
				t.Fatalf("iter %d: leaf %d differs: %v vs %v", iter, i, a.Leaves[i], b.Leaves[i])
			}
		}
	}
}

func TestRefineCoarsenRoundTrip(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randTree(r, 2, 3, 0.5)
		up := make([]int, tr.Len())
		for i, o := range tr.Leaves {
			up[i] = int(o.Level) + 2
		}
		fine := tr.Refine(up, nil)
		down := make([]int, fine.Len())
		for i, o := range fine.Leaves {
			down[i] = int(o.Level) - 2
		}
		back := fine.Coarsen(down)
		if back.Len() != tr.Len() {
			return false
		}
		for i := range back.Leaves {
			if !back.Leaves[i].EqualKey(tr.Leaves[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBalance21(t *testing.T) {
	// A single deeply refined corner forces a graded cascade.
	tr := Build(2, func(o sfc.Octant) bool {
		return o.X == 0 && o.Y == 0 // refine only the origin corner path
	}, 8, nil)
	if tr.IsBalanced21() {
		t.Skip("construction already balanced; deepen the test")
	}
	b := tr.Balance21(nil)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if !b.IsBalanced21() {
		t.Fatal("Balance21 did not balance")
	}
	if !b.IsComplete() {
		t.Fatal("balance must preserve completeness")
	}
	// Balance may only refine, never remove resolution.
	for _, o := range tr.Leaves {
		if b.FinestOverlappingLevel(o) < int(o.Level) {
			t.Fatalf("balance lost resolution at %v", o)
		}
	}
}

func TestBalance21Random(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 10; iter++ {
		dim := 2 + iter%2
		maxL := 6
		if dim == 3 {
			maxL = 4
		}
		tr := randTree(r, dim, maxL, 0.35)
		b := tr.Balance21(nil)
		if !b.IsBalanced21() {
			t.Fatalf("iter %d: not balanced", iter)
		}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLevelHistogram(t *testing.T) {
	tr := Uniform(2, 3)
	h := tr.LevelHistogram()
	if len(h) != 4 || h[3] != 1.0 {
		t.Fatalf("histogram %v", h)
	}
	if v := tr.VolumeFractionAtLevel(3); v != 1.0 {
		t.Fatalf("volume fraction %v", v)
	}
}

func TestOverlapRange(t *testing.T) {
	tr := Uniform(2, 3)
	q := sfc.Root(2).Child(1) // quarter of the domain
	lo, hi := tr.OverlapRange(q)
	if hi-lo != 16 {
		t.Fatalf("quarter of 64 leaves must be 16, got %d", hi-lo)
	}
	for i := lo; i < hi; i++ {
		if !tr.Leaves[i].Overlaps(q) {
			t.Fatalf("leaf %v in range does not overlap %v", tr.Leaves[i], q)
		}
	}
	// Ancestor leaf case: coarse tree, fine query.
	tr2 := Uniform(2, 1)
	fineQ := tr2.Leaves[2].Child(3).Child(0)
	lo, hi = tr2.OverlapRange(fineQ)
	if hi-lo != 1 || !tr2.Leaves[lo].IsAncestorOf(fineQ) {
		t.Fatalf("ancestor not found: range [%d,%d)", lo, hi)
	}
}

func TestFinestOverlappingLevelVoid(t *testing.T) {
	half := sfc.MaxCoord / 2
	tr := Build(2, func(o sfc.Octant) bool { return int(o.Level) < 2 }, 2,
		func(o sfc.Octant) bool { return o.X < half })
	right := sfc.Root(2).Child(1)
	if l := tr.FinestOverlappingLevel(right.Child(1)); l != -1 {
		t.Fatalf("void region reported level %d", l)
	}
}

// pointLocateTwoSearch is PointLocate as it was written first: the
// overlap range of the point's MaxLevel octant (two binary searches),
// scanned for the leaf containing the point.
func pointLocateTwoSearch(t *Tree, x, y, z uint32) int {
	q := sfc.Octant{X: x, Y: y, Z: z, Level: sfc.MaxLevel, Dim: uint8(t.Dim)}
	lo, hi := t.OverlapRange(q)
	for i := lo; i < hi; i++ {
		if t.Leaves[i].ContainsPoint(x, y, z) {
			return i
		}
	}
	return -1
}

// TestPointLocateMatchesTwoSearchScan: the one-search PointLocate returns
// the index the overlap-range scan does, on random complete and incomplete
// 2D and 3D trees with a chain of leaves refined to MaxLevel, for random
// points, every leaf's near and far corner and their outside neighbours,
// the MaxLevel leaves themselves, points outside the domain and points in
// void regions.
func TestPointLocateMatchesTwoSearchScan(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, incomplete := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				r := rand.New(rand.NewSource(seed*10 + int64(dim)))
				rc := func() uint32 { return r.Uint32() % sfc.MaxCoord }
				deep := [3]uint32{rc(), rc(), rc()}
				var retain RetainFn
				if incomplete {
					retain = func(o sfc.Octant) bool { return o.X < sfc.MaxCoord/2 || o.Y < sfc.MaxCoord/4 }
					deep[0] %= sfc.MaxCoord / 2
				}
				tr := Build(dim, func(o sfc.Octant) bool {
					return (o.Level < 4 && r.Float64() < 0.5) || o.ContainsPoint(deep[0], deep[1], deep[2])
				}, sfc.MaxLevel, retain)
				if _, max := tr.MinMaxLevel(); max != sfc.MaxLevel {
					t.Fatalf("dim=%d seed=%d: finest leaf at level %d, want MaxLevel", dim, seed, max)
				}
				pts := [][3]uint32{deep}
				for i := 0; i < 400; i++ {
					pts = append(pts, [3]uint32{rc(), rc(), rc()})
				}
				for _, o := range tr.Leaves {
					s := o.Side()
					pts = append(pts, [3]uint32{o.X, o.Y, o.Z}, [3]uint32{o.X + s - 1, o.Y + s - 1, o.Z + s - 1},
						[3]uint32{o.X + s, o.Y, o.Z}, [3]uint32{o.X - 1, o.Y + s - 1, o.Z})
				}
				found, void := 0, 0
				for _, p := range pts {
					if dim == 2 {
						p[2] = 0
					}
					got, want := tr.PointLocate(p[0], p[1], p[2]), pointLocateTwoSearch(tr, p[0], p[1], p[2])
					if got != want {
						t.Fatalf("dim=%d incomplete=%v seed=%d: point %v located in leaf %d, two-search scan %d", dim, incomplete, seed, p, got, want)
					}
					if outside := p[0] >= sfc.MaxCoord || p[1] >= sfc.MaxCoord || p[2] >= sfc.MaxCoord; got < 0 && !outside {
						void++
					} else if got >= 0 {
						found++
					}
				}
				if found == 0 || incomplete != (void > 0) {
					t.Fatalf("dim=%d incomplete=%v seed=%d: %d points located, %d in void", dim, incomplete, seed, found, void)
				}
			}
		}
	}
}
