package par

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
)

var sizes = []int{1, 2, 3, 4, 7, 8, 16}

func TestSendRecv(t *testing.T) {
	Run(4, func(c *Comm) {
		if c.Rank() == 0 {
			for r := 1; r < c.Size(); r++ {
				Send(c, r, 1, 100+r)
			}
		} else {
			v, src := Recv[int](c, 0, 1)
			if v != 100+c.Rank() || src != 0 {
				panic(fmt.Sprintf("rank %d got %d from %d", c.Rank(), v, src))
			}
		}
	})
}

func TestSendRecvOrderPreserved(t *testing.T) {
	Run(2, func(c *Comm) {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				Send(c, 1, 5, i)
			}
		} else {
			for i := 0; i < n; i++ {
				v, _ := Recv[int](c, 0, 5)
				if v != i {
					panic(fmt.Sprintf("out of order: want %d got %d", i, v))
				}
			}
		}
	})
}

func TestBarrier(t *testing.T) {
	for _, p := range sizes {
		var phase atomic.Int64
		Run(p, func(c *Comm) {
			for round := 0; round < 5; round++ {
				if got := phase.Load(); got != int64(round)*int64(p) && got < int64(round)*int64(p) {
					panic("barrier violated")
				}
				phase.Add(1)
				c.Barrier()
				if got := phase.Load(); got < int64(round+1)*int64(p) {
					panic(fmt.Sprintf("rank passed barrier before all arrived: %d", got))
				}
				c.Barrier()
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, p := range sizes {
		for root := 0; root < p; root++ {
			Run(p, func(c *Comm) {
				v := -1
				if c.Rank() == root {
					v = 42
				}
				got := Bcast(c, root, v)
				if got != 42 {
					panic(fmt.Sprintf("p=%d root=%d rank=%d got %d", p, root, c.Rank(), got))
				}
				s := BcastSlice(c, root, []int{c.Rank(), root})
				if s[0] != root || s[1] != root {
					panic("BcastSlice wrong")
				}
			})
		}
	}
}

func TestReduceAllreduce(t *testing.T) {
	add := func(a, b int) int { return a + b }
	for _, p := range sizes {
		Run(p, func(c *Comm) {
			want := p * (p - 1) / 2
			got := Reduce(c, 0, c.Rank(), add)
			if c.Rank() == 0 && got != want {
				panic(fmt.Sprintf("Reduce p=%d got %d want %d", p, got, want))
			}
			all := Allreduce(c, c.Rank(), add)
			if all != want {
				panic(fmt.Sprintf("Allreduce p=%d rank=%d got %d want %d", p, c.Rank(), all, want))
			}
		})
	}
}

func TestAllreduceSlice(t *testing.T) {
	Run(5, func(c *Comm) {
		in := []float64{float64(c.Rank()), 1}
		out := AllreduceSlice(c, in, func(a, b float64) float64 { return a + b })
		if out[0] != 10 || out[1] != 5 {
			panic(fmt.Sprintf("got %v", out))
		}
		if in[0] != float64(c.Rank()) {
			panic("input mutated")
		}
	})
}

func TestExscan(t *testing.T) {
	for _, p := range sizes {
		Run(p, func(c *Comm) {
			got := Exscan(c, c.Rank()+1, 0, func(a, b int) int { return a + b })
			want := 0
			for r := 0; r < c.Rank(); r++ {
				want += r + 1
			}
			if got != want {
				panic(fmt.Sprintf("Exscan p=%d rank=%d got %d want %d", p, c.Rank(), got, want))
			}
		})
	}
}

func TestGatherAllgather(t *testing.T) {
	Run(6, func(c *Comm) {
		g := Gather(c, 2, c.Rank()*10)
		if c.Rank() == 2 {
			for r := 0; r < 6; r++ {
				if g[r] != r*10 {
					panic("Gather wrong")
				}
			}
		} else if g != nil {
			panic("non-root must get nil")
		}
		a := Allgather(c, c.Rank())
		for r := 0; r < 6; r++ {
			if a[r] != r {
				panic("Allgather wrong")
			}
		}
	})
}

func TestAllgatherv(t *testing.T) {
	Run(4, func(c *Comm) {
		local := make([]int, c.Rank()+1)
		for i := range local {
			local[i] = c.Rank()
		}
		flat := Allgatherv(c, local)
		if len(flat) != 1+2+3+4 {
			panic(fmt.Sprintf("len %d", len(flat)))
		}
		i := 0
		for r := 0; r < 4; r++ {
			for k := 0; k <= r; k++ {
				if flat[i] != r {
					panic("Allgatherv order wrong")
				}
				i++
			}
		}
		// The result is rank-private: every rank overwrites its own in
		// place (as dsort's flat sort does) and must read back only its own
		// writes — a shared backing array fails here, and under -race.
		for i := range flat {
			flat[i] = -c.Rank()
		}
		c.Barrier()
		for i := range flat {
			if flat[i] != -c.Rank() {
				panic(fmt.Sprintf("rank %d: Allgatherv result aliased by another rank: flat[%d] = %d", c.Rank(), i, flat[i]))
			}
		}
	})
}

func TestAlltoallv(t *testing.T) {
	for _, p := range sizes {
		Run(p, func(c *Comm) {
			bufs := make([][]int, p)
			for r := 0; r < p; r++ {
				bufs[r] = []int{c.Rank()*1000 + r}
			}
			got := Alltoallv(c, bufs)
			for r := 0; r < p; r++ {
				if len(got[r]) != 1 || got[r][0] != r*1000+c.Rank() {
					panic(fmt.Sprintf("Alltoallv p=%d rank=%d from=%d got %v", p, c.Rank(), r, got[r]))
				}
			}
		})
	}
}

func TestAlltoallvStagedMatchesFlat(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5, 8, 9, 16} {
		for _, k := range []int{2, 3, 4} {
			Run(p, func(c *Comm) {
				rng := rand.New(rand.NewSource(int64(c.Rank())))
				bufs := make([][]int, p)
				for r := 0; r < p; r++ {
					n := rng.Intn(5)
					for i := 0; i < n; i++ {
						bufs[r] = append(bufs[r], c.Rank()*10000+r*100+i)
					}
				}
				want := Alltoallv(c, cloneBufs(bufs))
				got := AlltoallvStaged(c, bufs, k)
				for r := 0; r < p; r++ {
					if len(got[r]) != len(want[r]) {
						panic(fmt.Sprintf("p=%d k=%d rank=%d from=%d: len %d want %d", p, k, c.Rank(), r, len(got[r]), len(want[r])))
					}
					for i := range got[r] {
						if got[r][i] != want[r][i] {
							panic("staged alltoallv mismatch")
						}
					}
				}
			})
		}
	}
}

func cloneBufs(b [][]int) [][]int {
	out := make([][]int, len(b))
	for i := range b {
		out[i] = append([]int(nil), b[i]...)
	}
	return out
}

func TestCommSplit(t *testing.T) {
	Run(8, func(c *Comm) {
		sub := c.CommSplit(c.Rank()%2, c.Rank())
		if sub.Size() != 4 {
			panic(fmt.Sprintf("sub size %d", sub.Size()))
		}
		if sub.Rank() != c.Rank()/2 {
			panic(fmt.Sprintf("sub rank %d for world %d", sub.Rank(), c.Rank()))
		}
		// Collectives on the sub-communicator must stay inside it.
		sum := Allreduce(c, 1, func(a, b int) int { return a + b })
		if sum != 8 {
			panic("world allreduce wrong after split")
		}
		subSum := Allreduce(sub, c.Rank(), func(a, b int) int { return a + b })
		want := 0 + 2 + 4 + 6
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if subSum != want {
			panic(fmt.Sprintf("sub allreduce got %d want %d", subSum, want))
		}
	})
}

func TestCommSplitNegativeColor(t *testing.T) {
	Run(4, func(c *Comm) {
		color := c.Rank()
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.CommSplit(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				panic("negative color must return nil")
			}
			return
		}
		if sub.Size() != 1 {
			panic("singleton expected")
		}
	})
}

func TestCommSplitCached(t *testing.T) {
	Run(6, func(c *Comm) {
		a := c.CommSplitCached("grp", c.Rank()%3, c.Rank())
		b := c.CommSplitCached("grp", c.Rank()%3, c.Rank())
		if a != b {
			panic("cache miss on second call")
		}
		hits, misses := c.SplitStats()
		if hits != 1 || misses != 1 {
			panic(fmt.Sprintf("hits=%d misses=%d", hits, misses))
		}
	})
}

func TestNBXExchange(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 13} {
		Run(p, func(c *Comm) {
			// Sparse pattern: rank r sends to (r+1)%p and (r+3)%p.
			dests := []int{(c.Rank() + 1) % p, (c.Rank() + 3) % p}
			bufs := [][]int{{c.Rank()}, {c.Rank() + 1000}}
			srcs, recvd := NBXExchange(c, dests, bufs)
			if len(srcs) != 2 && p > 1 {
				// With small p, dest collisions can merge into self-sends
				// but each message still arrives separately.
				if len(srcs) != 2 {
					panic(fmt.Sprintf("p=%d rank=%d got %d messages", p, c.Rank(), len(srcs)))
				}
			}
			for i, s := range srcs {
				v := recvd[i][0]
				if v != s && v != s+1000 {
					panic(fmt.Sprintf("bad payload %d from %d", v, s))
				}
			}
		})
	}
}

func TestNBXRepeated(t *testing.T) {
	Run(4, func(c *Comm) {
		for round := 0; round < 10; round++ {
			dests := []int{(c.Rank() + round) % 4}
			bufs := [][]int{{round*100 + c.Rank()}}
			srcs, recvd := NBXExchange(c, dests, bufs)
			if len(srcs) != 1 {
				panic(fmt.Sprintf("round %d: got %d msgs", round, len(srcs)))
			}
			want := round*100 + ((c.Rank()-round)%4+4)%4
			if recvd[0][0] != want {
				panic(fmt.Sprintf("round %d: got %d want %d", round, recvd[0][0], want))
			}
		}
	})
}

func TestNBXMatchesCounted(t *testing.T) {
	Run(6, func(c *Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank() + 7)))
		var dests []int
		var bufs [][]int
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			d := rng.Intn(6)
			if seen[d] {
				continue
			}
			seen[d] = true
			dests = append(dests, d)
			bufs = append(bufs, []int{c.Rank()*100 + d})
		}
		s1, r1 := NBXExchange(c, dests, bufs)
		s2, r2 := AlltoallvCounted(c, dests, bufs)
		if len(s1) != len(s2) {
			panic(fmt.Sprintf("NBX %d msgs, counted %d", len(s1), len(s2)))
		}
		sortPairs(s1, r1)
		sortPairs(s2, r2)
		for i := range s1 {
			if s1[i] != s2[i] || r1[i][0] != r2[i][0] {
				panic("NBX/counted mismatch")
			}
		}
	})
}

func sortPairs(srcs []int, bufs [][]int) {
	idx := make([]int, len(srcs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return srcs[idx[a]] < srcs[idx[b]] })
	s2 := make([]int, len(srcs))
	b2 := make([][]int, len(bufs))
	for i, k := range idx {
		s2[i], b2[i] = srcs[k], bufs[k]
	}
	copy(srcs, s2)
	copy(bufs, b2)
}

func TestStatsCounting(t *testing.T) {
	var msgs int64
	Run(3, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 1, []float64{1, 2, 3})
		}
		if c.Rank() == 1 {
			RecvSlice[float64](c, 0, 1)
		}
		c.Barrier()
		if c.Rank() == 0 {
			msgs = c.Stats().Messages.Load()
		}
	})
	if msgs == 0 {
		t.Fatal("stats not counted")
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestCollectiveBackToBack(t *testing.T) {
	// Stress sequencing: interleave many different collectives; any
	// cross-talk between successive operations corrupts values.
	Run(7, func(c *Comm) {
		for i := 0; i < 50; i++ {
			s := Allreduce(c, 1, func(a, b int) int { return a + b })
			if s != 7 {
				panic(fmt.Sprintf("iter %d: allreduce %d", i, s))
			}
			g := Allgather(c, c.Rank()+i)
			for r := 0; r < 7; r++ {
				if g[r] != r+i {
					panic("allgather cross-talk")
				}
			}
			v := Bcast(c, i%7, i)
			if v != i {
				panic("bcast cross-talk")
			}
		}
	})
}
