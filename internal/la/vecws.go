package la

import (
	"math"

	"proteus/internal/blas"
)

// kspWS is the reusable solve workspace: every work vector of the
// configured method, the inner-product chunk sums and the reduction
// buffer. Allocated once per (operator shape, method) and reused by every
// warm Solve, which therefore allocates nothing.
type kspWS struct {
	full, n int
	method  Method

	// CG: r, z, p, ap. BiCGStab adds rhat, v, s, t, ph, sh (z, p reused).
	r, z, p, ap           []float64
	rhat, v, s, t, ph, sh []float64

	red      [2]float64 // reduction staging for GlobalSumInto
	chA, chB []float64  // canonical dot chunk sums
}

func newKspWS(full, n int, method Method) *kspWS {
	ws := &kspWS{full: full, n: n, method: method}
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
func (ws *kspWS) matches(full, n int, method Method) bool {
	return ws != nil && ws.full == full && ws.n == n && ws.method == method
}

// resize rebinds the workspace to a new operator shape in place, keeping
// every backing array whose capacity still fits. This is the remesh path
// of a persistent solver (chns.Solver.Rebind): vector lengths change but
// the method does not, so the Krylov storage survives the epoch instead
// of being reallocated — shrinking or same-size remeshes allocate
// nothing. Reused vectors are zeroed so stale ghost-segment values from
// the old mesh cannot leak into the first overlapped Apply.
func (ws *kspWS) resize(full, n int) {
	ws.full, ws.n = full, n
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

// ensureWS (re)builds the workspace if the operator shape or method
// changed since the last Solve. A pure shape change (same method,
// e.g. after a remesh rebound the operator) resizes the existing
// workspace in place, preserving its backing arrays.
func (k *KSP) ensureWS() {
	full, n := k.Op.FullLen(), k.Op.Rows()
	if k.ws.matches(full, n, k.Type) {
		return
	}
	if k.ws != nil && normalizeMethod(k.ws.method) == normalizeMethod(k.Type) {
		k.ws.resize(full, n)
		k.ws.method = k.Type
		return
	}
	k.ws = newKspWS(full, n, k.Type)
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
// The local sum is chunk-canonical (blas.DotChunks over every chunk, then
// SumOrdered) and the rank reduction deterministic, so results are
// bit-reproducible across runs.
func (k *KSP) dot(a, b []float64, n int) float64 {
	ws := k.ws
	nc := blas.NumChunks(n)
	blas.DotChunks(a, b, ws.chA, 0, nc, n)
	ws.red[0] = blas.SumOrdered(ws.chA[:nc])
	k.Red.GlobalSumInto(ws.red[:1])
	return ws.red[0]
}

// dot2 batches two inner products into one pass and one reduction (the
// communication-avoiding fusion behind IBCGS).
func (k *KSP) dot2(a, b, c, d []float64, n int) (float64, float64) {
	ws := k.ws
	nc := blas.NumChunks(n)
	blas.Dot2Chunks(a, b, c, d, ws.chA, ws.chB, 0, nc, n)
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
	blas.Axpy(alpha, x[:n], y[:n])
}

// axpy2 computes dst += a*x + b*y over the owned segment.
func (k *KSP) axpy2(a float64, x []float64, b float64, y, dst []float64, n int) {
	blas.Axpy2(a, x[:n], b, y[:n], dst[:n])
}

// waxpby computes dst = a*x + b*y over the owned segment; dst may alias
// x or y.
func (k *KSP) waxpby(dst []float64, a float64, x []float64, b float64, y []float64, n int) {
	blas.Waxpby(dst[:n], a, x[:n], b, y[:n])
}
