package blas

// Level-1 vector kernels for the Krylov solvers. Inner products are
// defined over fixed-length chunks whose partial sums are combined in
// chunk order, so the result is one canonical floating-point value no
// matter how the chunk range is split between calls, and repeated runs
// reproduce.

// DotChunk is the canonical inner-product chunk length. Chunk c of an
// n-vector covers elements [c*DotChunk, min((c+1)*DotChunk, n)).
const DotChunk = 1024

// NumChunks returns the chunk count of an n-vector.
func NumChunks(n int) int { return (n + DotChunk - 1) / DotChunk }

// DotChunks fills sums[c] with the chunk-c partial sum of a·b for every
// chunk c in [c0, c1), over the first n entries.
func DotChunks(a, b []float64, sums []float64, c0, c1, n int) {
	for c := c0; c < c1; c++ {
		lo := c * DotChunk
		hi := lo + DotChunk
		if hi > n {
			hi = n
		}
		var s float64
		aa := a[lo:hi]
		bb := b[lo:hi:hi]
		for i, v := range aa {
			s += v * bb[i]
		}
		sums[c] = s
	}
}

// Dot2Chunks is DotChunks for two inner products sharing one pass:
// sums1 gets chunk sums of a·b, sums2 of c·d.
func Dot2Chunks(a, b, c, d []float64, sums1, sums2 []float64, c0, c1, n int) {
	for ch := c0; ch < c1; ch++ {
		lo := ch * DotChunk
		hi := lo + DotChunk
		if hi > n {
			hi = n
		}
		var s1, s2 float64
		aa, bb := a[lo:hi], b[lo:hi:hi]
		cc, dd := c[lo:hi:hi], d[lo:hi:hi]
		for i, v := range aa {
			s1 += v * bb[i]
			s2 += cc[i] * dd[i]
		}
		sums1[ch] = s1
		sums2[ch] = s2
	}
}

// SumOrdered reduces partial sums left to right, the canonical combine
// order of the chunked inner products.
func SumOrdered(s []float64) float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// Axpy computes y += alpha*x. A zero-length x (an empty rank's owned
// segment) is a no-op.
func Axpy(alpha float64, x, y []float64) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Axpy2 computes dst += a*x + b*y elementwise.
func Axpy2(a float64, x []float64, b float64, y, dst []float64) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	_ = dst[len(x)-1]
	for i, v := range x {
		dst[i] += a*v + b*y[i]
	}
}

// Waxpby computes dst = a*x + b*y elementwise. dst may alias x or y.
func Waxpby(dst []float64, a float64, x []float64, b float64, y []float64) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	_ = dst[len(x)-1]
	for i, v := range x {
		dst[i] = a*v + b*y[i]
	}
}
