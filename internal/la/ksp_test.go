package la

import (
	"errors"
	"math"
	"testing"

	"proteus/internal/blas"
	"proteus/internal/par"
)

// convDiff1D assembles a nonsymmetric 1D convection-diffusion operator
// (tridiagonal 2, -1±c), diagonally dominant for |c| < 1.
func convDiff1D(n int, c float64) *BSRMat {
	m := NewAIJ(nil, 1, n, n)
	for i := 0; i < n; i++ {
		m.AddValue(i, i, 2)
		if i > 0 {
			m.AddValue(i, i-1, -1-c)
		}
		if i < n-1 {
			m.AddValue(i, i+1, -1+c)
		}
	}
	m.Finalize()
	return m
}

// applyInto computes b = A*x for a test matrix.
func applyInto(op Operator, x []float64) []float64 {
	b := make([]float64, op.FullLen())
	op.Apply(x, b)
	return b
}

// TestKSPConvergesToKnownSolution checks every method against a
// manufactured solution: CG on the SPD Laplacian, the nonsymmetric
// methods (BiCGStab, IBiCGS) on a convection-diffusion operator.
func TestKSPConvergesToKnownSolution(t *testing.T) {
	n := 128
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(0.1*float64(i)) + 0.5*math.Cos(0.37*float64(i))
	}
	cases := []struct {
		name   string
		method Method
		op     *BSRMat
	}{
		{"cg-spd", CG, lap1D(n)},
		{"bcgs-nonsym", BiCGS, convDiff1D(n, 0.4)},
		{"ibcgs-nonsym", IBiCGS, convDiff1D(n, 0.4)},
	}
	for _, tc := range cases {
		b := applyInto(tc.op, want)
		x := make([]float64, n)
		k := &KSP{Op: tc.op, PC: NewPCBJacobiILU0(tc.op), Type: tc.method, Rtol: 1e-12, Atol: 1e-14}
		res, err := k.Solve(b, x)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Converged {
			t.Fatalf("%s: no convergence: %+v", tc.name, res)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-6 {
				t.Fatalf("%s: x[%d] = %v, want %v", tc.name, i, x[i], want[i])
			}
		}
	}
}

// largeN spans a dozen dot chunks (blas.DotChunk entries each), the
// last one partial.
const largeN = 12288

// largeSPD builds an SPD scalar system of n rows with a manufactured
// right-hand side.
func largeSPD(n int) (*BSRMat, []float64) {
	m := lap1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(0.01 * float64(i))
	}
	return m, b
}

// TestKSPWarmSolveZeroAllocs is the acceptance check that a warm Solve
// (workspace already shaped) allocates nothing, for every method.
func TestKSPWarmSolveZeroAllocs(t *testing.T) {
	m, b := largeSPD(largeN)
	pc := NewPCBJacobiILU0(m) // exact for tridiagonal: solves in O(1) iterations
	for _, method := range []Method{CG, BiCGS, IBiCGS} {
		x := make([]float64, largeN)
		k := &KSP{Op: m, PC: pc, Type: method, Rtol: 1e-10}
		k.Solve(b, x) // cold: builds the workspace
		allocs := testing.AllocsPerRun(10, func() {
			for i := range x {
				x[i] = 0
			}
			k.Solve(b, x)
		})
		if allocs != 0 {
			t.Errorf("%s: warm Solve allocates %v times per run, want 0", method, allocs)
		}
	}
}

// TestShardedSolveMatchesSerialBitwise: the worker-pool knobs that remain
// for the benchmark's probes (BSRMat.SetPool, KSP.Pool) are no-ops, so a
// solve configured with a pool is bitwise identical to the plain one, for
// every method.
func TestShardedSolveMatchesSerialBitwise(t *testing.T) {
	m, b := largeSPD(largeN)
	pc := NewPCBJacobiILU0(m)
	pool := par.NewPool(5)
	defer pool.Close()
	for _, method := range []Method{CG, BiCGS, IBiCGS} {
		m.SetPool(nil)
		xs := make([]float64, largeN)
		ks := &KSP{Op: m, PC: pc, Type: method, Rtol: 1e-10}
		rs, _ := ks.Solve(b, xs)

		m.SetPool(pool)
		xp := make([]float64, largeN)
		kp := &KSP{Op: m, PC: pc, Type: method, Pool: pool, Rtol: 1e-10}
		rp, _ := kp.Solve(b, xp)

		if rs.Iterations != rp.Iterations || rs.Residual != rp.Residual {
			t.Fatalf("%s: plain %+v vs pooled %+v", method, rs, rp)
		}
		for i := range xs {
			if xs[i] != xp[i] {
				t.Fatalf("%s: x[%d] differs bitwise: plain %x pooled %x", method, i, xs[i], xp[i])
			}
		}
	}
	m.SetPool(nil)
}

// TestShardedSpMVAndDotsMatchSerialBitwise checks the two primitives
// against their sharded forms: Apply equals the product computed row
// shard by row shard, and the KSP's dot and dot2 equal the canonical
// chunk sums computed shard by shard and summed in chunk order — so the
// local sums never depend on how the work is split.
func TestShardedSpMVAndDotsMatchSerialBitwise(t *testing.T) {
	n := largeN
	m, b := largeSPD(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(0.003*float64(i)) * float64(i%17)
	}
	ys := applyInto(m, x)
	ks := &KSP{Op: m, Type: CG}
	ks.defaults()
	ks.ensureWS()
	ds := ks.dot(x, b, n)
	s1, s2 := ks.dot2(x, b, b, b, n)
	nc := blas.NumChunks(n)
	for _, nw := range []int{2, 3, 8} {
		yp := make([]float64, n)
		cA, cB := make([]float64, nc), make([]float64, nc)
		for w := 0; w < nw; w++ {
			m.applySpan(x, yp, nil, w*n/nw, (w+1)*n/nw)
			blas.Dot2Chunks(x, b, b, b, cA, cB, w*nc/nw, (w+1)*nc/nw, n)
		}
		for i := range ys {
			if ys[i] != yp[i] {
				t.Fatalf("nw=%d: SpMV y[%d] differs bitwise: %x vs %x", nw, i, ys[i], yp[i])
			}
		}
		if p1, p2 := blas.SumOrdered(cA), blas.SumOrdered(cB); ds != p1 || s1 != p1 || s2 != p2 {
			t.Fatalf("nw=%d: dot %x / dot2 (%x, %x) differ bitwise from the sharded chunk sums (%x, %x)", nw, ds, s1, s2, p1, p2)
		}
	}
}

// overlapScatter is a fake OverlapScatter for a single-rank stand-in of a
// distributed matrix: ghost slots [owned, len(ghosts)+owned) are served
// from a stored array. Begin poisons the ghost segment with NaN, End
// installs the real values — so any "interior" row that actually touches
// a ghost column contaminates the product and fails the test.
type overlapScatter struct {
	owned  int
	ghosts []float64
	reads  int
}

func (o *overlapScatter) GhostRead(v []float64, ndof int) {
	o.GhostReadBegin(v, ndof)
	o.GhostReadEnd(v, ndof)
}

func (o *overlapScatter) GhostReadBegin(v []float64, ndof int) {
	for i := range o.ghosts {
		v[o.owned*ndof+i] = math.NaN()
	}
}

func (o *overlapScatter) GhostReadEnd(v []float64, ndof int) {
	o.reads++
	copy(v[o.owned*ndof:], o.ghosts)
}

func (o *overlapScatter) Dot(a, b []float64, ndof int) float64 {
	var s float64
	for i := 0; i < o.owned*ndof; i++ {
		s += a[i] * b[i]
	}
	return s
}

func (o *overlapScatter) GlobalSum(v float64) float64 { return v }

// TestApplyOverlapsGhostExchange checks the interior/boundary split: the
// overlapped Apply must equal a reference product computed with the ghosts
// already in place, and the interior rows must never read ghost columns
// (enforced by the NaN poisoning above).
func TestApplyOverlapsGhostExchange(t *testing.T) {
	owned, ghost := 600, 40
	sc := &overlapScatter{owned: owned, ghosts: make([]float64, ghost)}
	for i := range sc.ghosts {
		sc.ghosts[i] = 2 + float64(i%5)
	}
	bs := 1
	m := NewBAIJ(sc, bs, owned, owned+ghost)
	for i := 0; i < owned; i++ {
		m.AddBlock(i, i, []float64{4})
		if i > 0 {
			m.AddBlock(i, i-1, []float64{-1})
		}
		if i < owned-1 {
			m.AddBlock(i, i+1, []float64{-1})
		}
		// Every 7th row borrows a ghost column: those are the boundary rows.
		if i%7 == 0 {
			m.AddBlock(i, owned+i%ghost, []float64{0.5})
		}
	}
	m.Finalize()
	interior, boundary := m.Sparsity().RowSplit()
	if len(boundary) != (owned+6)/7 {
		t.Fatalf("boundary rows = %d, want %d", len(boundary), (owned+6)/7)
	}
	if len(interior)+len(boundary) != owned {
		t.Fatalf("row split loses rows: %d + %d != %d", len(interior), len(boundary), owned)
	}

	x := make([]float64, owned+ghost)
	for i := 0; i < owned; i++ {
		x[i] = math.Sin(float64(i))
	}
	// Reference: ghosts pre-installed, plain row sweep.
	ref := make([]float64, owned+ghost)
	copy(ref, x)
	copy(ref[owned:], sc.ghosts)
	want := make([]float64, owned+ghost)
	m.applySpan(ref, want, nil, 0, owned)

	got := make([]float64, owned+ghost)
	m.Apply(x, got)
	if sc.reads != 1 {
		t.Fatalf("ghost exchange ran %d times, want 1", sc.reads)
	}
	for i := 0; i < owned; i++ {
		if got[i] != want[i] || math.IsNaN(got[i]) {
			t.Fatalf("overlapped Apply y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestOversizeBlockRejected pins the bs > 8 corruption hazard: the fixed
// row accumulator in Apply holds 8 entries, so larger blocks must be
// rejected at construction instead of silently overrunning.
func TestOversizeBlockRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBAIJ with bs=9 must panic")
		}
	}()
	NewBAIJ(nil, 9, 4, 4)
}

// TestUnknownMethodTypedError pins the no-panic contract: a KSP (or a
// Newton wrapping one) configured with an unknown method returns
// *ErrUnknownMethod instead of panicking, and the empty Type still
// defaults to IBiCGS.
func TestUnknownMethodTypedError(t *testing.T) {
	n := 16
	op := lap1D(n)
	b := make([]float64, n)
	b[0] = 1
	x := make([]float64, n)
	k := &KSP{Op: op, Type: Method("frobnicate"), Rtol: 1e-10}
	_, err := k.Solve(b, x)
	var ue *ErrUnknownMethod
	if !errors.As(err, &ue) || ue.Type != "frobnicate" {
		t.Fatalf("got %v, want *ErrUnknownMethod for frobnicate", err)
	}
	k.Type = ""
	if res, err := k.Solve(b, x); err != nil || !res.Converged {
		t.Fatalf("empty Type must default to a working method: %v %+v", err, res)
	}
}
