package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// DefaultKWay is the default fan-out of the hierarchical staged exchange;
// the paper uses k = 128 so that at most three stages cover 2M processes.
const DefaultKWay = 128

// nbxEpochs returns the shared per-rank epoch slots used to emulate the
// non-blocking barrier of the NBX algorithm for this communicator.
func (c *Comm) nbxEpochs() []atomic.Int64 {
	if v, ok := c.cache.epochs.Load(c.id); ok {
		return v.([]atomic.Int64)
	}
	v, _ := c.cache.epochs.LoadOrStore(c.id, make([]atomic.Int64, c.size()))
	return v.([]atomic.Int64)
}

// NBXExchange performs the dynamic sparse data exchange of Hoefler,
// Siebert & Lumsdaine (2010): each rank sends bufs[i] to dests[i] without
// any rank knowing in advance how many messages it will receive, and no
// Omega(p) primitive (such as MPI_Alltoall of counts) is used. Returns the
// received slices and their source ranks.
//
// The implementation mirrors the real protocol: eagerly issue all sends
// (delivery is synchronous in-process, standing in for completed ssends),
// arrive at a non-blocking barrier by publishing an epoch, and poll for
// incoming data until every rank has arrived, then drain.
//
// Buffers travel by reference: each received slice aliases its sender's
// buffer until the next barrier every rank passes after the exchange
// (Comm.Barrier), and must not be written. The sender in turn must not
// write a sent buffer before that barrier, because its receivers may
// still be reading it.
func NBXExchange[T any](c *Comm, dests []int, bufs [][]T) (srcs []int, recvd [][]T) {
	if len(dests) != len(bufs) {
		panic("par.NBXExchange: dests/bufs length mismatch")
	}
	seq := c.nextSeq()
	tag := collTag(tagNBXData, seq)
	for i, d := range dests {
		SendSlice(c, d, tag, bufs[i])
	}
	epochs := c.nbxEpochs()
	epochs[c.rank].Store(int64(seq))
	// Poll: consume incoming data while waiting for global barrier arrival.
	for {
		if msg, ok := c.tryRecv(AnySource, tag); ok {
			srcs = append(srcs, msg.src)
			recvd = append(recvd, slicePayload[T](msg.payload))
			continue
		}
		done := true
		for r := range epochs {
			if epochs[r].Load() < int64(seq) {
				done = false
				break
			}
		}
		if done {
			break
		}
		if c.w.poisoned.Load() {
			panic(poisonMsg)
		}
		runtime.Gosched()
	}
	// All ranks have arrived, so every message is already in the mailbox.
	for {
		msg, ok := c.tryRecv(AnySource, tag)
		if !ok {
			break
		}
		srcs = append(srcs, msg.src)
		recvd = append(recvd, slicePayload[T](msg.payload))
	}
	return srcs, recvd
}

func slicePayload[T any](p any) []T {
	if p == nil {
		return nil
	}
	return p.([]T)
}

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
