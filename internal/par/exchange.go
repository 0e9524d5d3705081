package par

import (
	"runtime"
	"sync/atomic"
)

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
