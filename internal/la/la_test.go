package la

import (
	"math"
	"math/rand"
	"testing"
)

// lap1D assembles the n x n 1D Dirichlet Laplacian (tridiagonal 2,-1).
func lap1D(n int) *BSRMat {
	m := NewAIJ(nil, 1, n, n)
	for i := 0; i < n; i++ {
		m.AddValue(i, i, 2)
		if i > 0 {
			m.AddValue(i, i-1, -1)
		}
		if i < n-1 {
			m.AddValue(i, i+1, -1)
		}
	}
	return m.Finalize()
}

func residualNorm(op Operator, b, x []float64) float64 {
	n := op.Rows()
	y := make([]float64, op.FullLen())
	op.Apply(x, y)
	var s float64
	for i := 0; i < n; i++ {
		d := b[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestKSPAllMethodsSolveLaplacian(t *testing.T) {
	n := 64
	m := lap1D(n)
	b := make([]float64, n)
	r := rand.New(rand.NewSource(1))
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	for _, method := range []Method{CG, BiCGS, IBiCGS} {
		for _, pc := range []PC{PCNone{}, NewPCJacobi(m), NewPCBJacobiILU0(m)} {
			x := make([]float64, n)
			k := &KSP{Op: m, PC: pc, Type: method, Rtol: 1e-10, Atol: 1e-12}
			res, err := k.Solve(append([]float64(nil), b...), x)
			if err != nil {
				t.Fatalf("%s/%T: %v", method, pc, err)
			}
			if !res.Converged {
				t.Fatalf("%s/%T did not converge: %+v", method, pc, res)
			}
			if rn := residualNorm(m, b, x); rn > 1e-7 {
				t.Fatalf("%s/%T residual %g", method, pc, rn)
			}
		}
	}
}

func TestILU0IsExactForTriangularFill(t *testing.T) {
	// For a tridiagonal matrix, ILU(0) is the exact LU factorization, so a
	// single preconditioner application solves the system.
	n := 40
	m := lap1D(n)
	pc := NewPCBJacobiILU0(m)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x := make([]float64, n)
	pc.Apply(b, x)
	if rn := residualNorm(m, b, x); rn > 1e-10 {
		t.Fatalf("ILU0 on tridiagonal must be a direct solve, residual %g", rn)
	}
}

func TestCGIterationCountsDropWithPC(t *testing.T) {
	n := 256
	m := lap1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	run := func(pc PC) int {
		x := make([]float64, n)
		k := &KSP{Op: m, PC: pc, Type: CG, Rtol: 1e-8}
		res, _ := k.Solve(append([]float64(nil), b...), x)
		if !res.Converged {
			t.Fatal("no convergence")
		}
		return res.Iterations
	}
	plain := run(PCNone{})
	ilu := run(NewPCBJacobiILU0(m))
	if ilu >= plain {
		t.Fatalf("ILU0 (%d its) must beat unpreconditioned (%d its)", ilu, plain)
	}
}

func TestBSRBlockApplyMatchesScalar(t *testing.T) {
	// A bs=2 block matrix must act identically to the equivalent scalar
	// AIJ matrix.
	r := rand.New(rand.NewSource(3))
	nodes := 10
	bs := 2
	blockM := NewBAIJ(nil, bs, nodes, nodes)
	scalarM := NewAIJ(nil, bs, nodes, nodes)
	for rn := 0; rn < nodes; rn++ {
		for _, cn := range []int{rn, (rn + 1) % nodes} {
			blk := make([]float64, bs*bs)
			for i := range blk {
				blk[i] = r.NormFloat64()
			}
			blockM.AddBlock(rn, cn, blk)
			for bi := 0; bi < bs; bi++ {
				for bj := 0; bj < bs; bj++ {
					scalarM.AddValue(rn*bs+bi, cn*bs+bj, blk[bi*bs+bj])
				}
			}
		}
	}
	x := make([]float64, nodes*bs)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	y1 := make([]float64, nodes*bs)
	y2 := make([]float64, nodes*bs)
	blockM.Finalize().Apply(x, y1)
	scalarM.Finalize().Apply(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("entry %d: block %v scalar %v", i, y1[i], y2[i])
		}
	}
}

func TestAddAfterFinalizeKeepsSparsity(t *testing.T) {
	m := lap1D(8)
	m.Zero()
	for i := 0; i < 8; i++ {
		m.AddValue(i, i, 1)
	}
	x := make([]float64, 8)
	y := make([]float64, 8)
	for i := range x {
		x[i] = float64(i)
	}
	m.Apply(x, y)
	for i := range y {
		if y[i] != x[i] {
			t.Fatalf("identity apply failed at %d: %v", i, y[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("adding outside sparsity must panic")
		}
	}()
	m.AddValue(0, 7, 1)
}

// quadProblem is a small nonlinear test: F_i(x) = x_i^2 + sum_j A_ij x_j - b_i.
type quadProblem struct {
	a *BSRMat
	b []float64
}

func (q *quadProblem) Residual(x, r []float64) {
	n := q.a.Rows()
	q.a.Apply(x, r)
	for i := 0; i < n; i++ {
		r[i] += x[i]*x[i] - q.b[i]
	}
}

func (q *quadProblem) Jacobian(x []float64) (Operator, PC) {
	n := q.a.Rows()
	j := NewAIJ(nil, 1, n, n)
	for i := 0; i < n; i++ {
		j.AddValue(i, i, 2+2*x[i]) // diagonal of lap1D is 2
		if i > 0 {
			j.AddValue(i, i-1, -1)
		}
		if i < n-1 {
			j.AddValue(i, i+1, -1)
		}
	}
	jm := j.Finalize()
	return jm, NewPCBJacobiILU0(jm)
}

func TestNewtonConverges(t *testing.T) {
	n := 32
	q := &quadProblem{a: lap1D(n), b: make([]float64, n)}
	for i := range q.b {
		q.b[i] = 1 + 0.1*float64(i%4)
	}
	x := make([]float64, n)
	nw := &Newton{Rtol: 1e-12, Atol: 1e-12}
	ok, err := nw.Solve(q, x)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Newton did not converge")
	}
	r := make([]float64, n)
	q.Residual(x, r)
	var s float64
	for _, v := range r {
		s += v * v
	}
	if math.Sqrt(s) > 1e-10 {
		t.Fatalf("residual %g after Newton", math.Sqrt(s))
	}
	if nw.Iterations > 20 {
		t.Fatalf("Newton took %d iterations, expected quadratic convergence", nw.Iterations)
	}
}

func TestLocalCSRMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	nodes, bs := 8, 2
	b := NewBAIJ(nil, bs, nodes, nodes+3) // 3 ghost column nodes
	for rn := 0; rn < nodes; rn++ {
		for _, cn := range []int{rn, (rn + 3) % (nodes + 3)} {
			blk := make([]float64, bs*bs)
			for i := range blk {
				blk[i] = r.NormFloat64()
			}
			if cn == rn {
				for d := 0; d < bs; d++ {
					blk[d*bs+d] += 3
				}
			}
			b.AddBlock(rn, cn, blk)
		}
	}
	m := b.Finalize()
	indptr, cols, vals, n := m.LocalCSR()
	if n != nodes*bs {
		t.Fatalf("local size %d", n)
	}
	// Apply both to a vector that is zero on ghost entries; results must
	// agree (ghost columns drop out).
	x := make([]float64, m.FullLen())
	for i := 0; i < n; i++ {
		x[i] = r.NormFloat64()
	}
	y := make([]float64, m.FullLen())
	m.Apply(x, y)
	for i := 0; i < n; i++ {
		var s float64
		for j := indptr[i]; j < indptr[i+1]; j++ {
			s += vals[j] * x[cols[j]]
		}
		if math.Abs(s-y[i]) > 1e-12 {
			t.Fatalf("row %d: csr %v apply %v", i, s, y[i])
		}
	}
}
