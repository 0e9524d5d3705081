package octree

import (
	"fmt"
	"math/rand"
	"testing"

	"proteus/internal/par"
	"proteus/internal/sfc"
)

// scatter deals the leaves of a globally built tree to p ranks in
// contiguous SFC ranges.
func scatter(tr *Tree, rank, p int) []sfc.Octant {
	n := tr.Len()
	lo := rank * n / p
	hi := (rank + 1) * n / p
	out := make([]sfc.Octant, hi-lo)
	copy(out, tr.Leaves[lo:hi])
	return out
}

func TestPartitionWeightedBalance(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		par.Run(p, func(c *par.Comm) {
			tr := Uniform(2, 4) // 256 leaves, built identically on all ranks
			local := scatter(tr, c.Rank(), p)
			// Skew: initially give everything weight 1.
			out := PartitionWeighted(c, local, nil)
			n := len(out)
			counts := par.Allgather(c, n)
			min, max := counts[0], counts[0]
			total := 0
			for _, v := range counts {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
				total += v
			}
			if total != 256 {
				panic(fmt.Sprintf("p=%d: lost leaves: %d", p, total))
			}
			if max-min > 2 {
				panic(fmt.Sprintf("p=%d: unbalanced %v", p, counts))
			}
			// Order preserved globally.
			all := par.Allgatherv(c, out)
			for i := range all {
				if !all[i].EqualKey(tr.Leaves[i]) {
					panic("partition broke global order")
				}
			}
		})
	}
}

func TestPartitionWeightedSkewed(t *testing.T) {
	par.Run(4, func(c *par.Comm) {
		tr := Uniform(2, 4)
		local := scatter(tr, c.Rank(), 4)
		// Heavy weights on rank 0's leaves: they should spread out.
		w := make([]float64, len(local))
		for i := range w {
			if c.Rank() == 0 {
				w[i] = 10
			} else {
				w[i] = 1
			}
		}
		out := PartitionWeighted(c, local, w)
		all := par.Allgatherv(c, out)
		if len(all) != 256 {
			panic("lost leaves")
		}
		// Rank 0 should hold far fewer than 64 leaves now.
		if c.Rank() == 0 && len(out) >= 64 {
			panic(fmt.Sprintf("weighted partition did not shrink heavy rank: %d", len(out)))
		}
	})
}

func TestGatherSplittersOwner(t *testing.T) {
	par.Run(4, func(c *par.Comm) {
		tr := Uniform(2, 3) // 64 leaves
		local := scatter(tr, c.Rank(), 4)
		spl := GatherSplitters(c, local)
		// Every leaf's first descendant must be owned by the rank holding it.
		for r := 0; r < 4; r++ {
			lo := r * 64 / 4
			hi := (r + 1) * 64 / 4
			for i := lo; i < hi; i++ {
				if got := spl.Owner(tr.Leaves[i].FirstDescendant()); got != r {
					panic(fmt.Sprintf("leaf %d: owner %d want %d", i, got, r))
				}
			}
		}
	})
}

func TestParCoarsenMatchesSerial(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for seed := int64(0); seed < 5; seed++ {
			var got, want []sfc.Octant
			par.Run(p, func(c *par.Comm) {
				r := rand.New(rand.NewSource(seed))
				tr := randTree(r, 2, 5, 0.5)
				targets := make([]int, tr.Len())
				for i, o := range tr.Leaves {
					targets[i] = int(o.Level) - r.Intn(int(o.Level)+1)
				}
				lo := c.Rank() * tr.Len() / p
				hi := (c.Rank() + 1) * tr.Len() / p
				local := ParCoarsen(c, 2, append([]sfc.Octant(nil), tr.Leaves[lo:hi]...), targets[lo:hi])
				all := par.Allgatherv(c, local)
				if c.Rank() == 0 {
					got = all
					want = tr.Coarsen(targets).Leaves
				}
			})
			if len(got) != len(want) {
				t.Fatalf("p=%d seed=%d: got %d leaves want %d", p, seed, len(got), len(want))
			}
			for i := range want {
				if !got[i].EqualKey(want[i]) {
					t.Fatalf("p=%d seed=%d: leaf %d: got %v want %v", p, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestParCoarsenDeepMergeAcrossRanks(t *testing.T) {
	// A uniform tree fully collapsible to root, scattered over 4 ranks:
	// the merge group spans every rank, exercising the multi-partition
	// candidate overlap path.
	par.Run(4, func(c *par.Comm) {
		tr := Uniform(2, 4) // 256 leaves
		local := scatter(tr, c.Rank(), 4)
		targets := make([]int, len(local))
		out := ParCoarsen(c, 2, local, targets)
		all := par.Allgatherv(c, out)
		if len(all) != 1 || all[0].Level != 0 {
			panic(fmt.Sprintf("expected root collapse, got %d leaves", len(all)))
		}
	})
}

func TestBalance21Distributed(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		par.Run(p, func(c *par.Comm) {
			// Deep corner refinement: the grading cascade must propagate
			// across rank boundaries.
			tr := Build(2, func(o sfc.Octant) bool {
				return o.X == 0 && o.Y == 0
			}, 9, nil)
			local := scatter(tr, c.Rank(), p)
			bal := Balance21Distributed(c, 2, local, nil)
			all := par.Allgatherv(c, bal)
			if c.Rank() == 0 {
				bt := New(2, all)
				if err := bt.Validate(); err != nil {
					panic(err)
				}
				if !bt.IsBalanced21() {
					panic(fmt.Sprintf("p=%d: distributed balance failed", p))
				}
				if !bt.IsComplete() {
					panic("balance lost completeness")
				}
				// Must match the serial result.
				st := tr.Balance21(nil)
				if st.Len() != bt.Len() {
					panic(fmt.Sprintf("p=%d: distributed %d leaves, serial %d", p, bt.Len(), st.Len()))
				}
			}
		})
	}
}
