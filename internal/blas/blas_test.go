package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveGemm(m, n, k int, alpha float64, a, b []float64, beta float64, c []float64) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += a[i*k+l] * b[l*n+j]
			}
			out[i*n+j] = alpha*s + beta*c[i*n+j]
		}
	}
	return out
}

func randSlice(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.NormFloat64()
	}
	return s
}

// transpose returns the m x k transpose of the k x m row-major matrix a.
func transpose(a []float64, k, m int) []float64 {
	at := make([]float64, m*k)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			at[j*k+i] = a[i*m+j]
		}
	}
	return at
}

// TestDgemmMatchesNaive checks DgemmTA against the naive triple loop at
// random alpha and beta, and at the alpha 1, beta 0, m = n in {4, 8}
// shapes its register-blocked kernels take.
func TestDgemmMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		m, n, k := 1+r.Intn(9), 1+r.Intn(9), 1+r.Intn(9)
		alpha, beta := r.NormFloat64(), r.NormFloat64()
		if iter%2 == 0 {
			m, alpha, beta = []int{4, 8}[iter%4/2], 1, 0
			n = m
		}
		a := randSlice(r, k*m)
		b := randSlice(r, k*n)
		c := randSlice(r, m*n)
		want := naiveGemm(m, n, k, alpha, transpose(a, k, m), b, beta, c)
		got := append([]float64(nil), c...)
		DgemmTA(m, n, k, alpha, a, b, beta, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-11 {
				t.Fatalf("m=%d n=%d k=%d entry %d: got %v want %v", m, n, k, i, got[i], want[i])
			}
		}
	}
}

func TestDgemmTAMatchesTransposedNaive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		m, n, k := 1+r.Intn(9), 1+r.Intn(9), 1+r.Intn(9)
		a := randSlice(r, k*m) // A is k x m, we multiply A^T (m x k)
		b := randSlice(r, k*n)
		c := randSlice(r, m*n)
		want := naiveGemm(m, n, k, 1.5, transpose(a, k, m), b, 0.5, c)
		got := append([]float64(nil), c...)
		DgemmTA(m, n, k, 1.5, a, b, 0.5, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-11 {
				t.Fatalf("entry %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
}

func TestDgemvAndTranspose(t *testing.T) {
	// y = alpha*A*x + beta*y; the A^T x form is DgemmTA with n = 1.
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		m, n := 1+r.Intn(12), 1+r.Intn(12)
		a := randSlice(r, m*n)
		x := randSlice(r, n)
		y := randSlice(r, m)
		want := make([]float64, m)
		for i := 0; i < m; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a[i*n+j] * x[j]
			}
			want[i] = 2*s + 3*y[i]
		}
		got := append([]float64(nil), y...)
		Dgemv(m, n, 2, a, x, 3, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-11 {
				t.Fatalf("gemv entry %d: got %v want %v", i, got[i], want[i])
			}
		}
		// Transpose: y2 = A^T x2.
		x2 := randSlice(r, m)
		want2 := make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += a[i*n+j] * x2[i]
			}
			want2[j] = s
		}
		got2 := make([]float64, n)
		DgemmTA(n, 1, m, 1, a, x2, 0, got2)
		for j := range want2 {
			if math.Abs(got2[j]-want2[j]) > 1e-11 {
				t.Fatalf("A^T x entry %d: got %v want %v", j, got2[j], want2[j])
			}
		}
	}
}

func TestDgemmBetaZeroOverwritesGarbage(t *testing.T) {
	c := []float64{math.NaN(), math.NaN()}
	DgemmTA(1, 2, 1, 1, []float64{1}, []float64{2, 3}, 0, c)
	if c[0] != 2 || c[1] != 3 {
		t.Fatalf("beta=0 must ignore prior contents: %v", c)
	}
	c = make([]float64, 16)
	for i := range c {
		c[i] = math.NaN()
	}
	DgemmTA(4, 4, 1, 1, make([]float64, 4), make([]float64, 4), 0, c)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("beta=0 kernel shape: c[%d] = %v, want 0", i, v)
		}
	}
}

func TestDgemmLinearity(t *testing.T) {
	// Property: DgemmTA is linear in A.
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, k := 2+r.Intn(4), 2+r.Intn(4), 2+r.Intn(4)
		a1 := randSlice(r, k*m)
		a2 := randSlice(r, k*m)
		b := randSlice(r, k*n)
		sum := make([]float64, k*m)
		for i := range sum {
			sum[i] = a1[i] + a2[i]
		}
		c1 := make([]float64, m*n)
		DgemmTA(m, n, k, 1, a1, b, 0, c1)
		DgemmTA(m, n, k, 1, a2, b, 1, c1)
		c2 := make([]float64, m*n)
		DgemmTA(m, n, k, 1, sum, b, 0, c2)
		for i := range c1 {
			if math.Abs(c1[i]-c2[i]) > 1e-10 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDgemmTAKernelsBitwise checks the register-blocked element-block
// kernels against the generic loop bit for bit, including exact zeros and
// negative zeros in A (the s == 0 skip) and a garbage-filled C (beta 0).
func TestDgemmTAKernelsBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 8} {
		for _, k := range []int{4, 8, 12, 24} {
			for iter := 0; iter < 20; iter++ {
				a := randSlice(r, k*n)
				b := randSlice(r, k*n)
				for i := range a {
					switch r.Intn(6) {
					case 0:
						a[i] = 0
					case 1:
						a[i] = math.Copysign(0, -1)
					}
				}
				if iter == 0 {
					clear(a) // every update skipped: C must still be overwritten
				}
				want := randSlice(r, n*n)
				got := append([]float64(nil), want...)
				got[0] = math.NaN()
				dgemmTAGeneric(n, n, k, 1, a, b, 0, want)
				DgemmTA(n, n, k, 1, a, b, 0, got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d k=%d iter %d entry %d: kernel %x generic %x",
							n, k, iter, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// BenchmarkDgemmTA times the NPE x NPE element-block product at the 2D
// (n=4) and 3D (n=8) shapes; k spans NG (mass/convection blocks) to
// Dim*NG (the stacked stiffness product). The generic/ rows run the same
// products through the any-shape loop the kernels are dispatched past.
func BenchmarkDgemmTA(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	for _, gemm := range []struct {
		prefix string
		f      func(m, n, k int, alpha float64, a, b []float64, beta float64, c []float64)
	}{{"", DgemmTA}, {"generic/", dgemmTAGeneric}} {
		for _, n := range []int{4, 8} {
			for _, k := range []int{4, 8, 24} {
				b.Run(fmt.Sprintf("%sn=%d/k=%d", gemm.prefix, n, k), func(b *testing.B) {
					x, y, c := randSlice(r, k*n), randSlice(r, k*n), make([]float64, n*n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						gemm.f(n, n, k, 1, x, y, 0, c)
					}
					b.ReportMetric(2*float64(n*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}
