package la

import (
	"math"

	"proteus/internal/blas"
)

// Workspace is Krylov work storage: the work vectors of CG and BiCGStab,
// the inner-product chunk sums and the reduction buffer. Every Solve that
// runs in it slices the vectors to its own operator's lengths and grows a
// backing array only when that length exceeds its capacity, so a warm
// Solve allocates nothing, and KSPs whose solves never overlap — the
// stages of one rank, which run one after another — can share one
// Workspace and hold the storage of their largest solve instead of the sum
// of all of them. A Workspace references no operator, PC or mesh. It
// serves one solve at a time: solves that can run concurrently, or one
// nested in another's operator or PC, need Workspaces of their own.
//
// The zero value is ready to use.
type Workspace struct {
	// vec holds the work vectors. BiCGStab uses all of them as r, rhat, p,
	// v, s, t, ph and sh; CG uses the first four as r, z, p and ap. Every
	// solve writes the owned segment of a vector before reading it, and
	// its operator refreshes the ghost segment of any vector it is applied
	// to, so what an earlier solve left in them is never read.
	vec [8][]float64

	red      [2]float64 // reduction staging for GlobalSumInto
	chA, chB []float64  // canonical dot chunk sums
}

// size slices the first nvec work vectors to full entries and the chunk
// sums to the chunk count of an n-row owned segment.
func (ws *Workspace) size(nvec, full, n int) {
	for i := range ws.vec[:nvec] {
		ws.vec[i] = fit(ws.vec[i], full)
	}
	nc := blas.NumChunks(n)
	ws.chA, ws.chB = fit(ws.chA, nc), fit(ws.chB, nc)
}

// fit returns v resliced to n entries, or a new zeroed slice when v's
// capacity is too small.
func fit(v []float64, n int) []float64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]float64, n)
}

// workspace returns the Workspace the KSP solves in: Work, or the KSP's
// private one.
func (k *KSP) workspace() *Workspace {
	if k.Work != nil {
		return k.Work
	}
	if k.own == nil {
		k.own = new(Workspace)
	}
	return k.own
}

// dot returns the global inner product of a·b over the owned segment.
// The local sum is chunk-canonical (blas.DotChunks over every chunk, then
// SumOrdered) and the rank reduction deterministic, so results are
// bit-reproducible across runs.
func (ws *Workspace) dot(red Reducer, a, b []float64, n int) float64 {
	nc := blas.NumChunks(n)
	blas.DotChunks(a, b, ws.chA, 0, nc, n)
	ws.red[0] = blas.SumOrdered(ws.chA[:nc])
	red.GlobalSumInto(ws.red[:1])
	return ws.red[0]
}

// dot2 batches two inner products into one pass and one reduction (the
// communication-avoiding fusion behind IBCGS).
func (ws *Workspace) dot2(red Reducer, a, b, c, d []float64, n int) (float64, float64) {
	nc := blas.NumChunks(n)
	blas.Dot2Chunks(a, b, c, d, ws.chA, ws.chB, 0, nc, n)
	ws.red[0] = blas.SumOrdered(ws.chA[:nc])
	ws.red[1] = blas.SumOrdered(ws.chB[:nc])
	red.GlobalSumInto(ws.red[:2])
	return ws.red[0], ws.red[1]
}

func (ws *Workspace) norm(red Reducer, a []float64, n int) float64 {
	return math.Sqrt(ws.dot(red, a, a, n))
}

// axpy computes y += alpha*x over the owned segment.
func axpy(alpha float64, x, y []float64, n int) {
	blas.Axpy(alpha, x[:n], y[:n])
}

// axpy2 computes dst += a*x + b*y over the owned segment.
func axpy2(a float64, x []float64, b float64, y, dst []float64, n int) {
	blas.Axpy2(a, x[:n], b, y[:n], dst[:n])
}

// waxpby computes dst = a*x + b*y over the owned segment; dst may alias
// x or y.
func waxpby(dst []float64, a float64, x []float64, b float64, y []float64, n int) {
	blas.Waxpby(dst[:n], a, x[:n], b, y[:n])
}
