package mesh

import (
	"proteus/internal/par"
)

// Tags for ghost exchange point-to-point traffic (below par's collective
// range).
const (
	tagGhostRead  = 101
	tagGhostWrite = 102
)

// NewVec allocates a local vector with ndof unknowns per node (owned
// followed by ghost), node-major: v[node*ndof+d].
func (m *Mesh) NewVec(ndof int) []float64 {
	return make([]float64, m.NumLocal*ndof)
}

// GhostRead fills the ghost segment of v from the owning ranks, so that
// every local node value is current. v must have NumLocal*ndof entries.
// Collective.
func (m *Mesh) GhostRead(v []float64, ndof int) {
	m.GhostReadBegin(v, ndof)
	m.GhostReadEnd(v, ndof)
}

// GhostReadBegin starts a ghost read: the owned segments borrowed by
// peers are serialized (into per-peer reusable buffers) and sent. Local
// computation that touches only owned entries of v may run between Begin
// and End — the overlap window BSRMat.Apply uses to hide the exchange
// behind its interior rows. Implements la.OverlapScatter. Collective with
// GhostReadEnd.
func (m *Mesh) GhostReadBegin(v []float64, ndof int) {
	c := m.Comm
	if c.Size() == 1 {
		return
	}
	for i := range m.sendTo {
		pl := &m.sendTo[i]
		need := len(pl.idx) * ndof
		if cap(pl.buf) < need {
			pl.buf = make([]float64, need)
		}
		buf := pl.buf[:need]
		for k, li := range pl.idx {
			copy(buf[k*ndof:(k+1)*ndof], v[int(li)*ndof:(int(li)+1)*ndof])
		}
		par.SendSlice(c, pl.rank, tagGhostRead, buf)
	}
}

// GhostReadEnd completes a ghost read started by GhostReadBegin, filling
// the ghost segment of v. The trailing barrier lets every rank safely
// reuse its send buffers in the next exchange.
func (m *Mesh) GhostReadEnd(v []float64, ndof int) {
	c := m.Comm
	if c.Size() == 1 {
		return
	}
	for range m.recvFrom {
		buf, src := par.RecvSlice[float64](c, par.AnySource, tagGhostRead)
		pl := m.peerRecv(src)
		for k, li := range pl.idx {
			copy(v[int(li)*ndof:(int(li)+1)*ndof], buf[k*ndof:(k+1)*ndof])
		}
	}
	c.Barrier()
}

// GhostWrite pushes the ghost segment of v back to the owning ranks,
// combining each incoming contribution into the owner's value with op
// (use Add for accumulation, Min/Max for the morphological passes), and
// resets the ghost segment to reset. The ghost values travel in per-peer
// reusable buffers, and incoming batches are applied in ascending
// source-rank order regardless of arrival (sendTo is rank-sorted), so
// accumulating writes are deterministic — the same discipline the
// assembler's off-process matrix flush uses, which keeps RHS assembly
// bitwise reproducible. The trailing barrier lets every rank safely reuse
// its send buffers in the next exchange. Collective.
func (m *Mesh) GhostWrite(v []float64, ndof int, op func(own, in float64) float64, reset float64) {
	c := m.Comm
	if c.Size() == 1 {
		return
	}
	for i := range m.recvFrom {
		pl := &m.recvFrom[i]
		need := len(pl.idx) * ndof
		if cap(pl.buf) < need {
			pl.buf = make([]float64, need)
		}
		buf := pl.buf[:need]
		for k, li := range pl.idx {
			copy(buf[k*ndof:(k+1)*ndof], v[int(li)*ndof:(int(li)+1)*ndof])
			for d := 0; d < ndof; d++ {
				v[int(li)*ndof+d] = reset
			}
		}
		par.SendSlice(c, pl.rank, tagGhostWrite, buf)
	}
	if len(m.gwRecv) != len(m.sendTo) {
		m.gwRecv = make([][]float64, len(m.sendTo))
	}
	for range m.sendTo {
		buf, src := par.RecvSlice[float64](c, par.AnySource, tagGhostWrite)
		i := 0
		for ; i < len(m.sendTo) && m.sendTo[i].rank != src; i++ {
		}
		if i == len(m.sendTo) {
			panic("mesh: unexpected ghost-write source")
		}
		m.gwRecv[i] = buf
	}
	for i := range m.sendTo {
		pl := &m.sendTo[i]
		buf := m.gwRecv[i]
		m.gwRecv[i] = nil
		for k, li := range pl.idx {
			for d := 0; d < ndof; d++ {
				o := int(li)*ndof + d
				v[o] = op(v[o], buf[k*ndof+d])
			}
		}
	}
	c.Barrier()
}

// Add is the accumulation combine for GhostWrite.
func Add(own, in float64) float64 { return own + in }

// MinOp keeps the smaller value (erosion-style combining).
func MinOp(own, in float64) float64 {
	if in < own {
		return in
	}
	return own
}

// MaxOp keeps the larger value (dilation-style combining).
func MaxOp(own, in float64) float64 {
	if in > own {
		return in
	}
	return own
}

func (m *Mesh) peerRecv(rank int) *peerList {
	for i := range m.recvFrom {
		if m.recvFrom[i].rank == rank {
			return &m.recvFrom[i]
		}
	}
	panic("mesh: unexpected ghost-read source")
}

// GlobalSum reduces the sum of an owned-segment quantity across ranks.
func (m *Mesh) GlobalSum(v float64) float64 {
	return par.Allreduce(m.Comm, v, func(a, b float64) float64 { return a + b })
}

// GlobalSumN element-wise sums a small vector across ranks.
func (m *Mesh) GlobalSumN(vals []float64) []float64 {
	return par.AllreduceSlice(m.Comm, vals, func(a, b float64) float64 { return a + b })
}

// GlobalSumInto element-wise sums vals across ranks in place (implements
// la.Reducer). The rank combine order is the deterministic binomial tree
// of par.Reduce, so results reproduce run to run. The reduction stages
// through the mesh's alternating scratch buffers instead of allocating
// per call; only the comm layer's message envelopes remain.
func (m *Mesh) GlobalSumInto(vals []float64) {
	c := m.Comm
	if c.Size() == 1 {
		return
	}
	m.redTick ^= 1
	buf := m.redScratch[m.redTick]
	if cap(buf) < len(vals) {
		buf = make([]float64, len(vals))
	}
	buf = buf[:len(vals)]
	m.redScratch[m.redTick] = buf
	copy(buf, vals)
	red := par.Reduce(c, 0, buf, addInPlace)
	copy(vals, par.BcastSlice(c, 0, red))
}

// addInPlace is the in-place combine of GlobalSumInto: a absorbs b.
func addInPlace(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mesh: GlobalSumInto length mismatch across ranks")
	}
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// GlobalMax reduces the maximum across ranks.
func (m *Mesh) GlobalMax(v float64) float64 {
	return par.Allreduce(m.Comm, v, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// Dot returns the global inner product of the owned segments of a and b
// (ndof-agnostic: pass slices covering NumOwned*ndof entries).
func (m *Mesh) Dot(a, b []float64, ndof int) float64 {
	var s float64
	n := m.NumOwned * ndof
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return m.GlobalSum(s)
}
