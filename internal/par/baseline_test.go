package par

import (
	"fmt"
	"testing"
)

// The Sec. II-C3 baselines and their benchmarks. No production path runs
// them: the staged k-way Alltoallv (Sec. II-C3a) and the Alltoall count
// exchange (Sec. II-C3c) are what the paper measures NBX and the flat
// exchange against.

// AlltoallvCounted is an Alltoallv that first distributes receive counts
// with a flat all-to-all of integers, mimicking the raw MPI_Alltoall
// count exchange the paper replaced with NBX (Sec. II-C3c). It exists as
// the baseline for the NBX benchmark: it always sends p-1 count messages
// even when the data pattern is sparse.
func AlltoallvCounted[T any](c *Comm, dests []int, bufs [][]T) (srcs []int, recvd [][]T) {
	p := c.size()
	counts := make([]int, p)
	for i, d := range dests {
		counts[d] = len(bufs[i]) + 1 // +1 marks presence even if empty
	}
	countBufs := make([][]int, p)
	for r := 0; r < p; r++ {
		countBufs[r] = []int{counts[r]}
	}
	gotCounts := Alltoallv(c, countBufs)
	tag := collTag(tagAlltoall, c.nextSeq())
	for i, d := range dests {
		SendSlice(c, d, tag, bufs[i])
	}
	for r := 0; r < p; r++ {
		if gotCounts[r][0] == 0 {
			continue
		}
		v, _ := RecvSlice[T](c, r, tag)
		srcs = append(srcs, r)
		recvd = append(recvd, v)
	}
	return srcs, recvd
}

// Routed is an envelope carrying a payload through intermediate ranks of
// the staged exchange.
type Routed[T any] struct {
	Src, Dest int // original source and final destination (ranks in c)
	Data      []T
}

// AlltoallvStaged performs an all-to-all exchange hierarchically: ranks
// are recursively divided into at most k contiguous supergroups per stage
// (O(log_k p) stages), so each rank sends O(k + p/k) messages per stage
// instead of p. This is the paper's defense against network congestion for
// distributed octree sorting (Sec. II-C3a). Sub-communicators are memoized
// via CommSplitCached, exercising the Sec. II-C3b optimization.
func AlltoallvStaged[T any](c *Comm, bufs [][]T, k int) [][]T {
	p := c.size()
	if len(bufs) != p {
		panic(fmt.Sprintf("par.AlltoallvStaged: have %d buffers for %d ranks", len(bufs), p))
	}
	if k < 2 {
		k = 2
	}
	pending := make([]Routed[T], 0, p)
	for d := 0; d < p; d++ {
		pending = append(pending, Routed[T]{Src: c.rank, Dest: d, Data: bufs[d]})
	}
	cur, base, level := c, 0, 0
	for cur.Size() > k {
		cp := cur.Size()
		gsz := (cp + k - 1) / k // subgroup size; number of subgroups <= k
		ngroups := (cp + gsz - 1) / gsz
		myGroup := cur.Rank() / gsz
		myIdx := cur.Rank() - myGroup*gsz
		mySubSize := subgroupSize(cp, gsz, myGroup)
		// Route each pending envelope to the pivot member of the subgroup
		// containing its destination.
		outgoing := make([][]Routed[T], ngroups)
		for _, env := range pending {
			g := (env.Dest - base) / gsz
			outgoing[g] = append(outgoing[g], env)
		}
		tag := collTag(tagAlltoall, cur.nextSeq())
		for g := 0; g < ngroups; g++ {
			sz := subgroupSize(cp, gsz, g)
			pivot := g*gsz + cur.Rank()%sz
			SendSlice(cur, pivot, tag, outgoing[g])
		}
		// Deterministic receive count: senders i with i % mySubSize == myIdx
		// relative to my subgroup... every rank sends one message per
		// subgroup; I am the pivot for sender i iff i % mySubSize == myIdx.
		expect := 0
		for i := 0; i < cp; i++ {
			if i%mySubSize == myIdx {
				expect++
			}
		}
		pending = pending[:0]
		for m := 0; m < expect; m++ {
			envs, _ := RecvSlice[Routed[T]](cur, AnySource, tag)
			pending = append(pending, envs...)
		}
		sub := cur.CommSplitCached(fmt.Sprintf("a2a-stage-%d", level), myGroup, cur.Rank())
		base += myGroup * gsz
		cur = sub
		level++
	}
	// Final stage: direct exchange within the (<= k)-rank subgroup.
	cp := cur.Size()
	finalBufs := make([][]Routed[T], cp)
	for _, env := range pending {
		l := env.Dest - base
		finalBufs[l] = append(finalBufs[l], env)
	}
	got := Alltoallv(cur, finalBufs)
	out := make([][]T, p)
	for _, envs := range got {
		for _, env := range envs {
			out[env.Src] = env.Data
		}
	}
	return out
}

func subgroupSize(p, gsz, g int) int {
	s := p - g*gsz
	if s > gsz {
		s = gsz
	}
	return s
}

// SplitStats returns how many CommSplitCached calls hit and missed the
// cache on this rank.
func (c *Comm) SplitStats() (hits, misses int) { return c.cache.Hits, c.cache.Misses }

// Sec. II-C3b: memoized communicator splitting.

func BenchmarkCommSplit_Uncached(b *testing.B) {
	Run(8, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.CommSplit(c.Rank()%2, c.Rank())
		}
	})
}

func BenchmarkCommSplit_Cached(b *testing.B) {
	Run(8, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.CommSplitCached("bench", c.Rank()%2, c.Rank())
		}
	})
}

// Sec. II-C3c: NBX sparse exchange against the Alltoall count exchange,
// by message volume for a sparse neighbour pattern: every message the
// world sent, read once Run has returned, so no rank's sends fall in or
// out of the count by scheduling.
func benchSparseExchange(b *testing.B, nbx bool) {
	const p = 16
	var st *Stats
	for i := 0; i < b.N; i++ {
		Run(p, func(c *Comm) {
			if c.Rank() == 0 {
				st = c.Stats()
			}
			dests := []int{(c.Rank() + 1) % p, (c.Rank() + p - 1) % p}
			bufs := [][]float64{make([]float64, 64), make([]float64, 64)}
			if nbx {
				NBXExchange(c, dests, bufs)
			} else {
				AlltoallvCounted(c, dests, bufs)
			}
		})
	}
	b.ReportMetric(float64(st.Messages.Load()), "messages")
}

func BenchmarkSparseExchange_NBX(b *testing.B)      { benchSparseExchange(b, true) }
func BenchmarkSparseExchange_Alltoall(b *testing.B) { benchSparseExchange(b, false) }
