package la

import (
	"math"
	"testing"
)

// lap2D is the 5-point Laplacian on an m×m grid (ILU(0) is inexact on it,
// unlike on lap1D, so the inner tolerance shows in the Krylov counts).
func lap2D(m int) *BSRMat {
	a := NewAIJ(nil, 1, m*m, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			r := i*m + j
			a.AddValue(r, r, 4)
			if i > 0 {
				a.AddValue(r, r-m, -1)
			}
			if i < m-1 {
				a.AddValue(r, r+m, -1)
			}
			if j > 0 {
				a.AddValue(r, r-1, -1)
			}
			if j < m-1 {
				a.AddValue(r, r+1, -1)
			}
		}
	}
	return a.Finalize()
}

// cubicM is the grid side of cubicProblem.
const cubicM = 12

// cubicProblem is the small nonlinear system the inexact-Newton tests run
// on: F_i(x) = x_i³ + (A x)_i − b_i with A the 2-D Laplacian. Its Jacobian
// and ILU(0) persist across calls (values rewritten in place, then Refresh:
// the time loop's warm path), and it records what the driver did: ‖F‖ at
// every Residual call with the inner tolerance the preceding linear solve
// ran at, and the Residual-call count at every Jacobian call.
type cubicProblem struct {
	side int // grid side
	a    *BSRMat
	b    []float64
	jac  *BSRMat
	pc   *PCBJacobiILU0
	nw   *Newton
	rec  bool
	f    []float64 // ‖F‖ per Residual call
	eta  []float64 // nw.ksp.Rtol per Residual call (0 before the first solve)
	jacs []int     // len(f) at each Jacobian call
}

// newCubicProblem is the configuration every test below solves, started
// from x = 3 by cubicStart. From there Newton first crawls (‖F‖ falls ~4×
// per iteration), then turns quadratic, rejects no line-search trial and
// ends on a chord step.
func newCubicProblem(nw *Newton) *cubicProblem { return newCubicProblemOn(nw, cubicM) }

// newCubicProblemOn is newCubicProblem on a side x side grid.
func newCubicProblemOn(nw *Newton, side int) *cubicProblem {
	p := &cubicProblem{side: side, a: lap2D(side), b: make([]float64, side*side), nw: nw, rec: true}
	for i := range p.b {
		p.b[i] = 1 + 0.1*float64(i%4)
	}
	return p
}

func cubicStart(x []float64) []float64 {
	for i := range x {
		x[i] = 3
	}
	return x
}

func (p *cubicProblem) Residual(x, r []float64) {
	n := p.a.Rows()
	p.a.Apply(x, r)
	var s float64
	for i := 0; i < n; i++ {
		r[i] += x[i]*x[i]*x[i] - p.b[i]
		s += r[i] * r[i]
	}
	if p.rec {
		eta := 0.0
		if p.nw.ksp != nil {
			eta = p.nw.ksp.Rtol
		}
		p.f, p.eta = append(p.f, math.Sqrt(s)), append(p.eta, eta)
	}
}

func (p *cubicProblem) Jacobian(x []float64) (Operator, PC) {
	if p.rec {
		p.jacs = append(p.jacs, len(p.f))
	}
	n := p.a.Rows()
	if p.jac == nil {
		p.jac = lap2D(p.side)
	}
	copy(p.jac.Vals(), p.a.Vals())
	for i := 0; i < n; i++ {
		p.jac.AddValue(i, i, 3*x[i]*x[i])
	}
	if p.pc == nil {
		p.pc = NewPCBJacobiILU0(p.jac)
	} else {
		p.pc.Refresh()
	}
	return p.jac, p.pc
}

// documentedEta is the forcing formula as newton.go's comment and the
// README state it, spelled with literal constants.
func documentedEta(k int, fk, fprev, tol, linRtol float64) float64 {
	eta := 1e-4
	if k > 0 {
		eta = 0.9 * (fk / fprev) * (fk / fprev)
	}
	eta = math.Max(eta, 0.1*tol/fk)
	return math.Min(math.Max(eta, linRtol), 1e-2)
}

// checkDriver replays a recorded solve that rejected no line-search trial
// (Residual call k is ‖F_k‖): every inner tolerance must equal the
// documented formula bit for bit, and iteration k ≥ 1 must have been a
// chord step — no Jacobian call between Residual calls k and k+1 — exactly
// when the previous one was not and ‖F_k‖²/‖F_{k-1}‖ ≤ 0.01·tol. It returns
// which branches of the formula the solve exercised and its chord steps.
func checkDriver(t *testing.T, p *cubicProblem, nw *Newton, tol float64) (branch map[string]bool, chords int) {
	t.Helper()
	its := len(p.f) - 1
	if its != nw.Iterations {
		t.Fatalf("%d Residual calls for %d iterations: a line-search trial was rejected", len(p.f), nw.Iterations)
	}
	built := map[int]bool{}
	for _, at := range p.jacs {
		built[at] = true // iteration k ≥ 1 calls it after Residual call k, i.e. at k+1; iteration 0 at 0
	}
	branch = map[string]bool{}
	prevChord := false
	for k := 0; k < its; k++ {
		fk, fprev := p.f[k], 0.0
		if k > 0 {
			fprev = p.f[k-1]
		}
		want := documentedEta(k, fk, fprev, tol, nw.LinRtol)
		if got := p.eta[k+1]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iteration %d: inner tolerance %g, documented formula gives %g", k, got, want)
		}
		switch want {
		case 1e-2:
			branch["max"] = true
		case nw.LinRtol:
			branch["LinRtol"] = true
		case 0.1 * tol / fk:
			branch["tol floor"] = true
		default:
			branch["EW"] = true
		}
		wantChord := k > 0 && !prevChord && fk*fk/fprev <= 0.01*tol
		if gotChord := k > 0 && !built[k+1]; gotChord != wantChord {
			t.Fatalf("iteration %d (‖F‖ %g after %g, tol %g): chord step %v, predicate says %v", k, fk, fprev, tol, gotChord, wantChord)
		}
		if wantChord {
			chords++
		}
		prevChord = wantChord
	}
	if nw.ChordSteps != chords || nw.Jacobians != its-chords || len(p.jacs) != nw.Jacobians {
		t.Fatalf("driver reports %d Jacobians and %d chord steps; the problem saw %d Jacobian calls over %d iterations with %d chord steps",
			nw.Jacobians, nw.ChordSteps, len(p.jacs), its, chords)
	}
	return branch, chords
}

// TestNewtonForcingSequence: at the default LinRtol and at one loose
// enough to bind, every inner solve runs at exactly the documented η_k, the
// chord step fires exactly under its predicate, and between them the two
// solves reach all four branches of the formula and a chord step.
func TestNewtonForcingSequence(t *testing.T) {
	seen := map[string]bool{}
	chords := 0
	for _, linRtol := range []float64{1e-8, 1e-3} {
		nw := &Newton{LinRtol: linRtol}
		p := newCubicProblem(nw)
		ok, err := nw.Solve(p, cubicStart(make([]float64, p.a.Rows())))
		if err != nil || !ok {
			t.Fatalf("LinRtol %g: converged %v, err %v", linRtol, ok, err)
		}
		branch, c := checkDriver(t, p, nw, math.Max(nw.Atol, nw.Rtol*p.f[0]))
		for b := range branch {
			seen[b] = true
		}
		chords += c
	}
	for _, b := range []string{"EW", "tol floor", "LinRtol", "max"} {
		if !seen[b] {
			t.Errorf("no iteration exercised the %q branch of the forcing formula (saw %v)", b, seen)
		}
	}
	if chords == 0 {
		t.Error("no solve took a chord step")
	}
}

// TestNewtonInexactMatchesExactOracle: the forcing terms and the chord step
// change neither the root nor the Newton count, only the Krylov work.
func TestNewtonInexactMatchesExactOracle(t *testing.T) {
	solve := func(exact bool) (*Newton, []float64) {
		nw := &Newton{exact: exact}
		p := newCubicProblem(nw)
		x := cubicStart(make([]float64, p.a.Rows()))
		if ok, err := nw.Solve(p, x); err != nil || !ok {
			t.Fatalf("exact=%v: converged %v, err %v", exact, ok, err)
		}
		if exact && (nw.ChordSteps != 0 || nw.Jacobians != nw.Iterations) {
			t.Fatalf("oracle took %d chord steps, %d Jacobians over %d iterations", nw.ChordSteps, nw.Jacobians, nw.Iterations)
		}
		for _, eta := range p.eta[1:] {
			if exact && eta != nw.LinRtol {
				t.Fatalf("oracle ran an inner solve at %g, not LinRtol", eta)
			}
		}
		return nw, x
	}
	in, xin := solve(false)
	ex, xex := solve(true)
	if in.Iterations != ex.Iterations {
		t.Fatalf("%d Newton iterations, exact oracle %d", in.Iterations, ex.Iterations)
	}
	if in.LinearIterations >= ex.LinearIterations {
		t.Fatalf("%d Krylov iterations, exact oracle %d: forcing saved nothing", in.LinearIterations, ex.LinearIterations)
	}
	for i := range xin {
		if d := math.Abs(xin[i] - xex[i]); d > 1e-9 {
			t.Fatalf("x[%d] differs from the oracle's by %g", i, d)
		}
	}
}

// scaleOp is s·I: with it as the Jacobian of F(x) = x a Newton step
// contracts ‖F‖ by exactly |1 − 1/s|, so a test can script the residual
// history the driver sees.
type scaleOp struct {
	s float64
	n int
}

func (o *scaleOp) Apply(x, y []float64) {
	for i := range x {
		y[i] = o.s * x[i]
	}
}
func (o *scaleOp) Rows() int    { return o.n }
func (o *scaleOp) FullLen() int { return o.n }

// scriptedProblem is F(x) = x whose k-th Jacobian call returns the operator
// that contracts ‖F‖ by factors[k]; sabotage, when set, re-scales the live
// operator at Residual call sabotageAt — after the driver has decided on a
// chord step, before that step's solve — so the chord step contracts by
// sabotage instead of repeating the previous factor.
type scriptedProblem struct {
	op         scaleOp
	factors    []float64
	sabotage   float64
	sabotageAt int
	residuals  int
	jacs       []int // Residual calls seen at each Jacobian call
}

func (p *scriptedProblem) Residual(x, r []float64) {
	copy(r, x)
	p.residuals++
	if p.sabotage != 0 && p.residuals == p.sabotageAt {
		p.op.s = 1 / (1 - p.sabotage)
	}
}

func (p *scriptedProblem) Jacobian([]float64) (Operator, PC) {
	p.op.s = 1 / (1 - p.factors[len(p.jacs)])
	p.jacs = append(p.jacs, p.residuals)
	return &p.op, PCNone{}
}

// TestNewtonChordStep scripts ‖F‖ = 1 → 0.2 → 1e-6 with tol 1e-9, so the
// chord predicate first holds at iteration 2 (1e-12/0.2 ≤ 1e-11). Left
// alone the chord step repeats the 5e-6 contraction and converges without a
// third Jacobian, and Contraction still reports the last full iteration's.
// Sabotaged to land on 2e-9 — a miss, yet (2e-9)²/1e-6 ≤ 1e-11 holds again —
// iteration 3 must rebuild its Jacobian instead of taking a second chord
// step in a row.
func TestNewtonChordStep(t *testing.T) {
	run := func(sabotage float64) (*Newton, *scriptedProblem) {
		p := &scriptedProblem{op: scaleOp{n: 4}, factors: []float64{0.2, 5e-6, 1e-3}, sabotage: sabotage, sabotageAt: 3}
		nw := &Newton{Rtol: 1e-30, Atol: 1e-9, LinRtol: 1e-8}
		x := []float64{0.5, 0.5, 0.5, 0.5}
		if ok, err := nw.Solve(p, x); err != nil || !ok {
			t.Fatalf("sabotage %g: converged %v, err %v", sabotage, ok, err)
		}
		return nw, p
	}
	nw, p := run(0)
	if nw.Iterations != 3 || nw.Jacobians != 2 || nw.ChordSteps != 1 || len(p.jacs) != 2 {
		t.Fatalf("hit: %d iterations, %d Jacobians, %d chord steps, %d Jacobian calls; want 3, 2, 1, 2", nw.Iterations, nw.Jacobians, nw.ChordSteps, len(p.jacs))
	}
	if c := nw.Contraction; math.Abs(c*5e-6-1) > 1e-6 {
		t.Fatalf("Contraction %g after a chord step, want the last full iteration's %g", c, 1/5e-6)
	}
	nw, p = run(2e-3)
	if nw.Iterations != 4 || nw.Jacobians != 3 || nw.ChordSteps != 1 {
		t.Fatalf("miss: %d iterations, %d Jacobians, %d chord steps; want 4, 3, 1", nw.Iterations, nw.Jacobians, nw.ChordSteps)
	}
	// Jacobian calls: before Residual 0 (iteration 0), after Residual calls
	// 2 (iteration 1) and 4 (iteration 3); none after 3 (the chord step).
	if len(p.jacs) != 3 || p.jacs[0] != 0 || p.jacs[1] != 2 || p.jacs[2] != 4 {
		t.Fatalf("miss: Jacobian calls after Residual calls %v, want [0 2 4]", p.jacs)
	}
}

// TestNewtonWarmSolveZeroAllocs: a Solve on an already-shaped workspace
// allocates nothing, forcing sequence and chord step included.
func TestNewtonWarmSolveZeroAllocs(t *testing.T) {
	nw := &Newton{}
	p := newCubicProblem(nw)
	p.rec = false
	x := make([]float64, p.a.Rows())
	if ok, err := nw.Solve(p, cubicStart(x)); err != nil || !ok { // cold: shapes the workspace
		t.Fatalf("converged %v, err %v", ok, err)
	}
	if nw.ChordSteps == 0 {
		t.Fatal("the solve took no chord step: the warm path under test is not the whole loop")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		nw.Solve(p, cubicStart(x))
	}); allocs != 0 {
		t.Fatalf("warm Newton.Solve allocates %v times per run, want 0", allocs)
	}
}

// TestNewtonShrinkSolveZeroAllocs: the driver's work vectors and its inner
// KSP's workspace are resliced within their capacity, so once a Solve has
// shaped them on a larger problem — a remesh that shrinks the mesh — a
// Solve on the smaller one allocates nothing, and the inner KSP keeps no
// operator, PC or reducer of either.
func TestNewtonShrinkSolveZeroAllocs(t *testing.T) {
	nw := &Newton{Work: new(Workspace)}
	big, small := newCubicProblemOn(nw, cubicM+4), newCubicProblemOn(nw, cubicM)
	big.rec, small.rec = false, false
	xb, xs := make([]float64, big.a.Rows()), make([]float64, small.a.Rows())
	for _, p := range []struct {
		p *cubicProblem
		x []float64
	}{{big, xb}, {small, xs}} {
		if ok, err := nw.Solve(p.p, cubicStart(p.x)); err != nil || !ok {
			t.Fatalf("side %d: converged %v, err %v", p.p.side, ok, err)
		}
	}
	if k := nw.ksp; k.Op != nil || k.PC != nil || k.Red != nil || k.own != nil {
		t.Fatalf("inner KSP after Solve: Op %v, PC %v, Red %v, private workspace %v", k.Op, k.PC, k.Red, k.own != nil)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		nw.Solve(big, cubicStart(xb))
		nw.Solve(small, cubicStart(xs))
	}); allocs != 0 {
		t.Fatalf("Newton.Solve after a shrink allocates %v times per run, want 0", allocs)
	}
}
