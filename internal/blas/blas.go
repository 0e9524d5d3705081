// Package blas provides the small dense kernels (DGEMM/DGEMV) that the
// stage-2 assembly optimization of Saurabh et al. (IPDPS 2023, Sec. III-A)
// expresses FEM operators with. The paper links Intel MKL; this pure-Go
// substitute keeps the same call structure (one big matrix product per
// elemental operator instead of explicit Gauss-point loops), so the
// *structural* speedup of the zip/GEMM formulation is preserved. The gc
// compiler does not auto-vectorise: every kernel here is scalar code. The
// generic loops stream rank-1 updates through C in memory; only the
// element-block shapes of DgemmTA (alpha 1, beta 0, m = n in {4, 8} — the
// 2D quad and 3D hex NPE x NPE products) are register-blocked.
package blas

// DgemmTA computes C = alpha*A^T*B + beta*C where A is k x m (so A^T is
// m x k), B is k x n, C is m x n, all row-major. The element-block shapes
// (alpha 1, beta 0, m = n in {4, 8}) go to register-blocked kernels that
// sum every entry in the same l order as the generic loop, so the result
// is bitwise identical whichever path runs.
func DgemmTA(m, n, k int, alpha float64, a []float64, b []float64, beta float64, c []float64) {
	if alpha == 1 && beta == 0 && m == n {
		switch n {
		case 4:
			dgemmTA4(k, a, b, c)
			return
		case 8:
			dgemmTA8(k, a, b, c)
			return
		}
	}
	dgemmTAGeneric(m, n, k, alpha, a, b, beta, c)
}

// dgemmTAGeneric is the any-shape DgemmTA: l-outer rank-1 updates with C
// accumulated through memory.
func dgemmTAGeneric(m, n, k int, alpha float64, a []float64, b []float64, beta float64, c []float64) {
	if beta != 1 {
		if beta == 0 {
			for i := range c[:m*n] {
				c[i] = 0
			}
		} else {
			for i := range c[:m*n] {
				c[i] *= beta
			}
		}
	}
	for l := 0; l < k; l++ {
		al := a[l*m : l*m+m]
		bl := b[l*n : l*n+n]
		for i := 0; i < m; i++ {
			s := alpha * al[i]
			if s == 0 {
				continue
			}
			ci := c[i*n : i*n+n]
			j := 0
			for ; j+4 <= n; j += 4 {
				ci[j] += s * bl[j]
				ci[j+1] += s * bl[j+1]
				ci[j+2] += s * bl[j+2]
				ci[j+3] += s * bl[j+3]
			}
			for ; j < n; j++ {
				ci[j] += s * bl[j]
			}
		}
	}
}

// dgemmTA4 is C = A^T*B for m = n = 4: one C row is held in registers over
// the whole l loop and stored once.
func dgemmTA4(k int, a, b, c []float64) {
	a, b, c = a[:k*4], b[:k*4], c[:16]
	for i := 0; i < 4; i++ {
		var c0, c1, c2, c3 float64
		for l := 0; l < k; l++ {
			s := a[l*4+i]
			if s == 0 {
				continue
			}
			bl := b[l*4 : l*4+4 : l*4+4]
			c0 += s * bl[0]
			c1 += s * bl[1]
			c2 += s * bl[2]
			c3 += s * bl[3]
		}
		ci := c[i*4 : i*4+4 : i*4+4]
		ci[0], ci[1], ci[2], ci[3] = c0, c1, c2, c3
	}
}

// dgemmTA8 is dgemmTA4 for m = n = 8.
func dgemmTA8(k int, a, b, c []float64) {
	a, b, c = a[:k*8], b[:k*8], c[:64]
	for i := 0; i < 8; i++ {
		var c0, c1, c2, c3, c4, c5, c6, c7 float64
		for l := 0; l < k; l++ {
			s := a[l*8+i]
			if s == 0 {
				continue
			}
			bl := b[l*8 : l*8+8 : l*8+8]
			c0 += s * bl[0]
			c1 += s * bl[1]
			c2 += s * bl[2]
			c3 += s * bl[3]
			c4 += s * bl[4]
			c5 += s * bl[5]
			c6 += s * bl[6]
			c7 += s * bl[7]
		}
		ci := c[i*8 : i*8+8 : i*8+8]
		ci[0], ci[1], ci[2], ci[3] = c0, c1, c2, c3
		ci[4], ci[5], ci[6], ci[7] = c4, c5, c6, c7
	}
}

// Dgemv computes y = alpha*A*x + beta*y for row-major A (m x n).
func Dgemv(m, n int, alpha float64, a []float64, x []float64, beta float64, y []float64) {
	for i := 0; i < m; i++ {
		ai := a[i*n : i*n+n]
		var s float64
		for j, v := range ai {
			s += v * x[j]
		}
		if beta == 0 {
			y[i] = alpha * s
		} else {
			y[i] = beta*y[i] + alpha*s
		}
	}
}
