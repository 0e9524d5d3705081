package par

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Send delivers a single value to rank dst with the given tag. User tags
// must be non-negative and below 1<<12.
func Send[T any](c *Comm, dst, tag int, v T) {
	c.send(dst, tag, v, int(unsafe.Sizeof(v)))
}

// Recv blocks for a single value from src (or AnySource) with the given tag
// and returns the value and the actual source rank.
func Recv[T any](c *Comm, src, tag int) (T, int) {
	msg := c.recv(src, tag)
	return msg.payload.(T), msg.src
}

// SendSlice delivers a slice to rank dst. The sender must not mutate the
// slice afterwards.
func SendSlice[T any](c *Comm, dst, tag int, v []T) {
	var elem T
	c.send(dst, tag, v, len(v)*int(unsafe.Sizeof(elem)))
}

// RecvSlice blocks for a slice from src (or AnySource) with the given tag.
func RecvSlice[T any](c *Comm, src, tag int) ([]T, int) {
	msg := c.recv(src, tag)
	if msg.payload == nil {
		return nil, msg.src
	}
	return msg.payload.([]T), msg.src
}

// Barrier blocks until every rank in the communicator has entered it,
// using the dissemination algorithm (ceil(log2 p) rounds).
func (c *Comm) Barrier() {
	tag := collTag(tagBarrier, c.nextSeq())
	p := c.size()
	if p == 1 {
		return
	}
	for d := 1; d < p; d <<= 1 {
		dst := (c.rank + d) % p
		src := (c.rank - d + p) % p
		Send(c, dst, tag, struct{}{})
		Recv[struct{}](c, src, tag)
	}
}

// bcastParent returns the virtual-rank parent in the binomial tree: the
// virtual rank with its highest set bit cleared.
func bcastParent(vr int) int {
	return vr &^ (1 << (bits.Len(uint(vr)) - 1))
}

// Bcast distributes root's value to every rank over a binomial tree and
// returns it.
func Bcast[T any](c *Comm, root int, v T) T {
	tag := collTag(tagBcast, c.nextSeq())
	p := c.size()
	if p == 1 {
		return v
	}
	vr := (c.rank - root + p) % p
	if vr != 0 {
		v, _ = Recv[T](c, (bcastParent(vr)+root)%p, tag)
	}
	start := 1
	for start <= vr {
		start <<= 1
	}
	for d := start; vr+d < p; d <<= 1 {
		Send(c, (vr+d+root)%p, tag, v)
	}
	return v
}

// BcastSlice distributes root's slice to every rank.
func BcastSlice[T any](c *Comm, root int, v []T) []T {
	tag := collTag(tagBcast, c.nextSeq())
	p := c.size()
	if p == 1 {
		return v
	}
	vr := (c.rank - root + p) % p
	if vr != 0 {
		v, _ = RecvSlice[T](c, (bcastParent(vr)+root)%p, tag)
	}
	start := 1
	for start <= vr {
		start <<= 1
	}
	for d := start; vr+d < p; d <<= 1 {
		SendSlice(c, (vr+d+root)%p, tag, v)
	}
	return v
}

// Reduce combines every rank's value with op over a binomial tree rooted at
// root; op must be associative. Only root's return value is meaningful.
// The combine order is deterministic, so floating-point reductions are
// reproducible across runs with the same rank count.
func Reduce[T any](c *Comm, root int, v T, op func(a, b T) T) T {
	tag := collTag(tagReduce, c.nextSeq())
	p := c.size()
	vr := (c.rank - root + p) % p
	for d := 1; d < p; d <<= 1 {
		if vr&d != 0 {
			Send(c, (vr-d+root)%p, tag, v)
			return v
		}
		if vr+d < p {
			other, _ := Recv[T](c, (vr+d+root)%p, tag)
			v = op(v, other)
		}
	}
	return v
}

// Allreduce combines every rank's value with op and returns the result on
// all ranks.
func Allreduce[T any](c *Comm, v T, op func(a, b T) T) T {
	return Bcast(c, 0, Reduce(c, 0, v, op))
}

// AllreduceSlice combines equal-length slices element-wise with op and
// returns the result on all ranks. The input is not mutated.
func AllreduceSlice[T any](c *Comm, v []T, op func(a, b T) T) []T {
	out := make([]T, len(v))
	copy(out, v)
	red := Reduce(c, 0, out, func(a, b []T) []T {
		if len(a) != len(b) {
			panic("par.AllreduceSlice: length mismatch across ranks")
		}
		for i := range a {
			a[i] = op(a[i], b[i])
		}
		return a
	})
	return BcastSlice(c, 0, red)
}

// Exscan returns the exclusive prefix combination of v over ranks: rank r
// receives op(v_0, ..., v_{r-1}); rank 0 receives zero.
func Exscan[T any](c *Comm, v T, zero T, op func(a, b T) T) T {
	tag := collTag(tagScan, c.nextSeq())
	all := Gather(c, 0, v)
	var mine T
	if c.rank == 0 {
		acc := zero
		for r := 0; r < c.size(); r++ {
			if r == 0 {
				mine = acc
			} else {
				Send(c, r, tag, acc)
			}
			acc = op(acc, all[r])
		}
	} else {
		mine, _ = Recv[T](c, 0, tag)
	}
	return mine
}

// Gather collects one value per rank at root, indexed by rank. Non-root
// ranks receive nil.
func Gather[T any](c *Comm, root int, v T) []T {
	tag := collTag(tagGather, c.nextSeq())
	if c.rank != root {
		Send(c, root, tag, v)
		return nil
	}
	out := make([]T, c.size())
	out[c.rank] = v
	for i := 1; i < c.size(); i++ {
		val, src := Recv[T](c, AnySource, tag)
		out[src] = val
	}
	return out
}

// Allgather collects one value per rank on every rank, indexed by rank.
func Allgather[T any](c *Comm, v T) []T {
	return BcastSlice(c, 0, Gather(c, 0, v))
}

// Gatherv collects a slice per rank at root, indexed by rank. Non-root
// ranks receive nil.
func Gatherv[T any](c *Comm, root int, v []T) [][]T {
	tag := collTag(tagGather, c.nextSeq())
	if c.rank != root {
		SendSlice(c, root, tag, v)
		return nil
	}
	out := make([][]T, c.size())
	out[c.rank] = v
	for i := 1; i < c.size(); i++ {
		val, src := RecvSlice[T](c, AnySource, tag)
		out[src] = val
	}
	return out
}

// Allgatherv collects a slice per rank and returns the concatenation in
// rank order on every rank. The result is private to the caller (it may be
// sorted or edited in place): the in-process broadcast hands every rank the
// same backing array, so each rank returns its own copy and the shared one
// is only ever read.
func Allgatherv[T any](c *Comm, v []T) []T {
	parts := Gatherv(c, 0, v)
	var flat []T
	if c.rank == 0 {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		flat = make([]T, 0, n)
		for _, p := range parts {
			flat = append(flat, p...)
		}
	}
	if c.size() == 1 {
		return flat
	}
	return append([]T(nil), BcastSlice(c, 0, flat)...)
}

// Alltoallv sends bufs[r] to rank r for every r and returns the slice
// received from each rank, indexed by source rank. bufs must have length
// Size(). This is the flat O(p) exchange; the staged k-way variant the
// paper adopts at scale (Sec. II-C3a) is measured against it in the
// package's benchmarks.
func Alltoallv[T any](c *Comm, bufs [][]T) [][]T {
	tag := collTag(tagAlltoall, c.nextSeq())
	p := c.size()
	if len(bufs) != p {
		panic(fmt.Sprintf("par.Alltoallv: have %d buffers for %d ranks", len(bufs), p))
	}
	out := make([][]T, p)
	out[c.rank] = bufs[c.rank]
	for off := 1; off < p; off++ {
		dst := (c.rank + off) % p
		SendSlice(c, dst, tag, bufs[dst])
	}
	for i := 1; i < p; i++ {
		v, src := RecvSlice[T](c, AnySource, tag)
		out[src] = v
	}
	return out
}

// splitCache memoizes CommSplit results per rank, standing in for the MPI
// user cache attribute the paper attaches to the root communicator
// (Sec. II-C3b). All ranks must call CommSplitCached with identical keys in
// identical order.
type splitCache struct {
	comms map[string]*Comm
	// nextID hands out globally unique communicator ids; shared via pointer
	// across all ranks of a world.
	nextID *atomic.Int64
	// epochs holds per-communicator-id NBX barrier epochs, shared across
	// ranks.
	epochs *sync.Map
	// Hits and Misses count cached versus performed splits for the
	// Sec. II-C3b benchmark.
	Hits, Misses int
}

func newSplitCache() *splitCache {
	return &splitCache{nextID: &atomic.Int64{}, epochs: &sync.Map{}}
}

// perRank returns a rank-private view sharing the id counter and epochs.
func (s *splitCache) perRank() *splitCache {
	return &splitCache{comms: make(map[string]*Comm), nextID: s.nextID, epochs: s.epochs}
}

// CommSplit partitions the communicator by color: ranks passing the same
// color form a new communicator ordered by (key, rank). A negative color
// returns nil for that rank. Splitting is a collective operation and, as
// the paper notes, a costly one — prefer CommSplitCached in hot paths.
func (c *Comm) CommSplit(color, key int) *Comm {
	type ck struct{ Color, Key, Rank int }
	all := Allgather(c, ck{color, key, c.rank})
	colors := map[int][]ck{}
	for _, e := range all {
		if e.Color >= 0 {
			colors[e.Color] = append(colors[e.Color], e)
		}
	}
	var colorKeys []int
	for col := range colors {
		colorKeys = append(colorKeys, col)
	}
	sort.Ints(colorKeys)
	// Rank 0 draws a fresh id per colour so tags cannot collide across
	// sibling sub-communicators.
	type colID struct{ Col, ID int }
	var flat []colID
	if c.rank == 0 {
		for _, col := range colorKeys {
			flat = append(flat, colID{col, int(c.cache.nextID.Add(1))})
		}
	}
	flat = BcastSlice(c, 0, flat)
	if color < 0 {
		return nil
	}
	id := 0
	for _, e := range flat {
		if e.Col == color {
			id = e.ID
		}
	}
	members := colors[color]
	sort.Slice(members, func(i, j int) bool {
		if members[i].Key != members[j].Key {
			return members[i].Key < members[j].Key
		}
		return members[i].Rank < members[j].Rank
	})
	group := make([]int, len(members))
	newRank := -1
	for i, m := range members {
		group[i] = c.group[m.Rank]
		if m.Rank == c.rank {
			newRank = i
		}
	}
	return &Comm{w: c.w, rank: newRank, group: group, id: id, cache: c.cache, parent: c}
}

// CommSplitCached is CommSplit memoized under cacheKey: the first call per
// key performs the collective split; later calls return the saved
// communicator without communication.
func (c *Comm) CommSplitCached(cacheKey string, color, key int) *Comm {
	k := fmt.Sprintf("%d|%s", c.id, cacheKey)
	if sub, ok := c.cache.comms[k]; ok {
		c.cache.Hits++
		return sub
	}
	c.cache.Misses++
	sub := c.CommSplit(color, key)
	c.cache.comms[k] = sub
	return sub
}
