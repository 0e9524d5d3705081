package la

import (
	"math"

	"proteus/internal/blas"
	"proteus/internal/par"
)

// minParallelN is the vector length below which sharding an axpy/dot
// costs more in dispatch than it saves.
const minParallelN = 8192

// Vector op codes dispatched to the pool workers.
const (
	opDot = iota
	opDot2
	opAxpy   // vb += alpha*va
	opAxpy2  // vw += alpha*va + beta*vb
	opWaxpby // vw = alpha*va + beta*vb
)

// kspWS is the reusable solve workspace: every work vector of the
// configured method, the inner-product chunk sums, the reduction buffer,
// and the prebuilt shard closure with its argument slots. Allocated once
// per (operator shape, method, pool) and reused by every warm Solve, which
// therefore allocates nothing.
type kspWS struct {
	pool    *par.Pool
	full, n int
	method  Method

	// CG: r, z, p, ap. BiCGStab adds rhat, v, s, t, ph, sh (z, p reused).
	r, z, p, ap           []float64
	rhat, v, s, t, ph, sh []float64

	red      [2]float64 // reduction staging for GlobalSumInto
	chA, chB []float64  // canonical dot chunk sums

	// Sharded-op dispatch state: the op code and argument slots read by
	// fn, the prebuilt worker closure.
	op          int
	alpha, beta float64
	va, vb, vw  []float64
	vc, vd      []float64
	opN, nw     int
	fn          func(w int)
}

func newKspWS(pool *par.Pool, full, n int, method Method) *kspWS {
	ws := &kspWS{pool: pool, full: full, n: n, method: method}
	ws.fn = ws.runShard
	ws.chA = make([]float64, blas.NumChunks(n))
	ws.chB = make([]float64, blas.NumChunks(n))
	vec := func() []float64 { return make([]float64, full) }
	switch method {
	case CG:
		ws.r, ws.z, ws.p, ws.ap = vec(), vec(), vec(), vec()
	case BiCGS, IBiCGS, "":
		ws.r, ws.p = vec(), vec()
		ws.rhat = make([]float64, n)
		ws.v, ws.s, ws.t, ws.ph, ws.sh = vec(), vec(), vec(), vec(), vec()
	}
	return ws
}

// matches reports whether the workspace fits a solve of the given shape.
func (ws *kspWS) matches(pool *par.Pool, full, n int, method Method) bool {
	return ws != nil && ws.pool == pool && ws.full == full && ws.n == n && ws.method == method
}

// resize rebinds the workspace to a new operator shape in place, keeping
// every backing array whose capacity still fits. This is the remesh path
// of a persistent solver (chns.Solver.Rebind): vector lengths change but
// the method does not, so the Krylov storage survives the epoch instead
// of being reallocated — shrinking or same-size remeshes allocate
// nothing. Reused vectors are zeroed so stale ghost-segment values from
// the old mesh cannot leak into the first overlapped Apply.
func (ws *kspWS) resize(pool *par.Pool, full, n int) {
	ws.pool, ws.full, ws.n = pool, full, n
	grow := func(v *[]float64, ln int) {
		if cap(*v) >= ln {
			*v = (*v)[:ln]
			for i := range *v {
				(*v)[i] = 0
			}
			return
		}
		*v = make([]float64, ln)
	}
	nc := blas.NumChunks(n)
	grow(&ws.chA, nc)
	grow(&ws.chB, nc)
	for _, v := range []*[]float64{&ws.r, &ws.z, &ws.p, &ws.ap, &ws.v, &ws.s, &ws.t, &ws.ph, &ws.sh} {
		if *v != nil {
			grow(v, full)
		}
	}
	if ws.rhat != nil {
		grow(&ws.rhat, n)
	}
}

// dispatch runs the staged op over n entries, sharded across the pool
// when the vector is long enough to pay for it. Inner products are
// chunk-canonical (see blas.DotChunks), so the serial and sharded paths
// agree bitwise.
func (ws *kspWS) dispatch(n int) {
	ws.opN = n
	if ws.pool != nil && ws.pool.Workers() > 1 && n >= minParallelN {
		ws.nw = ws.pool.Workers()
		ws.pool.Run(ws.fn)
	} else {
		ws.nw = 1
		ws.runShard(0)
	}
	ws.va, ws.vb, ws.vc, ws.vd, ws.vw = nil, nil, nil, nil, nil
}

// runShard executes worker w's contiguous share of the staged op.
func (ws *kspWS) runShard(w int) {
	n, nw := ws.opN, ws.nw
	switch ws.op {
	case opDot:
		nc := blas.NumChunks(n)
		blas.DotChunks(ws.va, ws.vb, ws.chA, w*nc/nw, (w+1)*nc/nw, n)
	case opDot2:
		nc := blas.NumChunks(n)
		blas.Dot2Chunks(ws.va, ws.vb, ws.vc, ws.vd, ws.chA, ws.chB, w*nc/nw, (w+1)*nc/nw, n)
	case opAxpy:
		lo, hi := w*n/nw, (w+1)*n/nw
		blas.Axpy(ws.alpha, ws.va[lo:hi], ws.vb[lo:hi])
	case opAxpy2:
		lo, hi := w*n/nw, (w+1)*n/nw
		blas.Axpy2(ws.alpha, ws.va[lo:hi], ws.beta, ws.vb[lo:hi], ws.vw[lo:hi])
	case opWaxpby:
		lo, hi := w*n/nw, (w+1)*n/nw
		blas.Waxpby(ws.vw[lo:hi], ws.alpha, ws.va[lo:hi], ws.beta, ws.vb[lo:hi])
	}
}

// ensureWS (re)builds the workspace if the operator shape, method or
// pool changed since the last Solve. A pure shape change (same method,
// e.g. after a remesh rebound the operator) resizes the existing
// workspace in place, preserving its backing arrays.
func (k *KSP) ensureWS() {
	full, n := k.Op.FullLen(), k.Op.Rows()
	if k.ws.matches(k.Pool, full, n, k.Type) {
		return
	}
	if k.ws != nil && normalizeMethod(k.ws.method) == normalizeMethod(k.Type) {
		k.ws.resize(k.Pool, full, n)
		k.ws.method = k.Type
		return
	}
	k.ws = newKspWS(k.Pool, full, n, k.Type)
}

// normalizeMethod folds the method aliases that share a workspace layout
// ("" solves as IBiCGS; BiCGS and IBiCGS use identical vectors).
func normalizeMethod(m Method) Method {
	switch m {
	case BiCGS, IBiCGS, "":
		return BiCGS
	default:
		return m
	}
}

// dot returns the global inner product of a·b over the owned segment.
// The local sum is chunk-canonical and the rank reduction deterministic,
// so results are bit-reproducible across runs and worker counts.
func (k *KSP) dot(a, b []float64, n int) float64 {
	ws := k.ws
	ws.op, ws.va, ws.vb = opDot, a, b
	ws.dispatch(n)
	ws.red[0] = blas.SumOrdered(ws.chA[:blas.NumChunks(n)])
	k.Red.GlobalSumInto(ws.red[:1])
	return ws.red[0]
}

// dot2 batches two inner products into one pass and one reduction (the
// communication-avoiding fusion behind IBCGS).
func (k *KSP) dot2(a, b, c, d []float64, n int) (float64, float64) {
	ws := k.ws
	ws.op, ws.va, ws.vb, ws.vc, ws.vd = opDot2, a, b, c, d
	ws.dispatch(n)
	nc := blas.NumChunks(n)
	ws.red[0] = blas.SumOrdered(ws.chA[:nc])
	ws.red[1] = blas.SumOrdered(ws.chB[:nc])
	k.Red.GlobalSumInto(ws.red[:2])
	return ws.red[0], ws.red[1]
}

func (k *KSP) norm(a []float64, n int) float64 {
	return math.Sqrt(k.dot(a, a, n))
}

// axpy computes y += alpha*x over the owned segment.
func (k *KSP) axpy(alpha float64, x, y []float64, n int) {
	ws := k.ws
	ws.op, ws.alpha, ws.va, ws.vb = opAxpy, alpha, x, y
	ws.dispatch(n)
}

// axpy2 computes dst += a*x + b*y over the owned segment.
func (k *KSP) axpy2(a float64, x []float64, b float64, y, dst []float64, n int) {
	ws := k.ws
	ws.op, ws.alpha, ws.beta, ws.va, ws.vb, ws.vw = opAxpy2, a, b, x, y, dst
	ws.dispatch(n)
}

// waxpby computes dst = a*x + b*y over the owned segment; dst may alias
// x or y.
func (k *KSP) waxpby(dst []float64, a float64, x []float64, b float64, y []float64, n int) {
	ws := k.ws
	ws.op, ws.alpha, ws.beta, ws.va, ws.vb, ws.vw = opWaxpby, a, b, x, y, dst
	ws.dispatch(n)
}
