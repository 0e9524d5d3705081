// Package par provides an in-process distributed-memory runtime that stands
// in for MPI. Each rank is a goroutine; ranks communicate only by message
// passing through a Comm. The package supplies the point-to-point and
// collective operations the meshing and solver layers need: tagged
// Send/Recv, Barrier, Bcast, Reduce/Allreduce, Gatherv/Allgatherv,
// Alltoallv, CommSplit with a memoized sub-communicator cache, and the NBX
// non-blocking-consensus sparse data exchange of Hoefler et al. (2010).
// The paper's Sec. II-C3 baselines — the hierarchically staged k-way
// Alltoallv and the Alltoall count exchange NBX replaces — live in the
// package's test files, next to the benchmarks that measure them.
//
// Message payloads are passed by reference for efficiency; by convention a
// sender must not mutate a buffer after sending it. Traffic counters track
// message and byte volumes so benchmarks can report communication costs.
package par

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Base tags for library-internal collectives. User tags must stay below
// tagCollBase. Collectives compose their base tag with a per-communicator
// sequence number so that back-to-back collectives on the same
// communicator cannot intercept each other's traffic.
const (
	tagCollBase = 1 << 12
	tagBarrier  = tagCollBase + iota
	tagBcast
	tagReduce
	tagGather
	tagScan
	tagAlltoall
	tagNBXData
	tagSort
)

// message is an envelope in a rank's mailbox.
type message struct {
	src, tag int
	payload  any
	bytes    int
}

// mailbox is the receive queue of one rank: a simple condition-variable
// protected list with (src, tag) matching, standing in for the MPI matching
// engine.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take removes and returns the first message matching (src, tag), blocking
// until one arrives. src == AnySource matches any sender.
func (m *mailbox) take(w *world, src, tag int) message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.queue {
			if (src == AnySource || msg.src == src) && msg.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return msg
			}
		}
		if w.poisoned.Load() {
			panic(poisonMsg)
		}
		m.cond.Wait()
	}
}

// tryTake is the non-blocking variant of take.
func (m *mailbox) tryTake(src, tag int) (message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, msg := range m.queue {
		if (src == AnySource || msg.src == src) && msg.tag == tag {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return msg, true
		}
	}
	return message{}, false
}

// AnySource matches messages from any rank in Recv/Probe.
const AnySource = -1

// Stats accumulates communication traffic for one world. Counters are
// shared by all sub-communicators derived from the world.
type Stats struct {
	Messages atomic.Int64
	Bytes    atomic.Int64
}

// world is the shared state behind a top-level Run: one mailbox per rank
// plus collective helper state.
type world struct {
	size     int
	boxes    []*mailbox
	stats    *Stats
	barNo    []atomic.Int64 // per-rank barrier epoch (for NBX Ibarrier emulation)
	poisoned atomic.Bool    // set when any rank panics, to unblock peers
}

// poison marks the world dead and wakes every blocked receiver so peers
// fail fast instead of deadlocking on a rank that will never send.
func (w *world) poison() {
	w.poisoned.Store(true)
	for _, b := range w.boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Comm is a communicator: an ordered group of ranks. The zero value is not
// usable; communicators are created by Run and CommSplit.
type Comm struct {
	w      *world
	rank   int   // rank within this communicator
	group  []int // world rank of each communicator rank
	id     int   // globally unique communicator id (0 = world)
	seq    int   // per-rank collective sequence number on this communicator
	cache  *splitCache
	parent *Comm
}

// nextSeq returns a fresh collective sequence number. All ranks execute the
// same deterministic sequence of collectives per communicator, so their
// counters agree without communication.
func (c *Comm) nextSeq() int {
	c.seq++
	return c.seq
}

// collTag composes a collective base tag with a sequence number.
func collTag(base, seq int) int { return base | (seq&0xffffff)<<16 }

// Rank returns the calling rank's index within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size() }

func (c *Comm) size() int { return len(c.group) }

// Stats returns the world-wide traffic counters.
func (c *Comm) Stats() *Stats { return c.w.stats }

// Run launches n ranks, each executing body with its own communicator, and
// returns when all ranks have finished. Panics in rank bodies are
// propagated to the caller.
func Run(n int, body func(c *Comm)) {
	if n <= 0 {
		panic("par.Run: non-positive rank count")
	}
	w := &world{size: n, boxes: make([]*mailbox, n), stats: &Stats{}, barNo: make([]atomic.Int64, n)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	shared := newSplitCache()
	var wg sync.WaitGroup
	panics := make([]any, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[r] = p
					w.poison()
				}
			}()
			body(&Comm{w: w, rank: r, group: group, cache: shared.perRank()})
		}(r)
	}
	wg.Wait()
	// Report the root-cause panic, not the poison-induced aborts on peers.
	first := -1
	for r, p := range panics {
		if p == nil {
			continue
		}
		if s, ok := p.(string); ok && s == poisonMsg {
			if first < 0 {
				first = r
			}
			continue
		}
		panic(fmt.Sprintf("par.Run: rank %d panicked: %v", r, p))
	}
	if first >= 0 {
		panic(fmt.Sprintf("par.Run: rank %d aborted on poisoned world", first))
	}
}

const poisonMsg = "par: peer rank panicked; aborting blocked receive"

// send delivers a payload with a byte-size estimate into dst's mailbox.
func (c *Comm) send(dst, tag int, payload any, bytes int) {
	if dst < 0 || dst >= c.size() {
		panic(fmt.Sprintf("par: send to invalid rank %d (size %d)", dst, c.size()))
	}
	c.w.stats.Messages.Add(1)
	c.w.stats.Bytes.Add(int64(bytes))
	c.w.boxes[c.group[dst]].put(message{src: c.rank, tag: c.tagKey(tag), payload: payload, bytes: bytes})
}

// tagKey namespaces tags per communicator so congruent communicators with
// overlapping groups do not intercept each other's traffic.
func (c *Comm) tagKey(tag int) int { return tag | c.id<<44 }

// recv blocks for a message from src (or AnySource) with the given tag.
func (c *Comm) recv(src, tag int) message {
	worldSrc := AnySource
	if src != AnySource {
		worldSrc = src
	}
	msg := c.w.boxes[c.group[c.rank]].take(c.w, worldSrc, c.tagKey(tag))
	return msg
}

// tryRecv is the non-blocking variant of recv.
func (c *Comm) tryRecv(src, tag int) (message, bool) {
	return c.w.boxes[c.group[c.rank]].tryTake(src, c.tagKey(tag))
}
