package la

import (
	"math"
	"time"
)

// NewtonProblem supplies the nonlinear residual and Jacobian for a Newton
// solve, mirroring the PETSc SNES callbacks. Vectors are full local
// (owned+ghost); residuals are defined on the owned segment.
type NewtonProblem interface {
	// Residual evaluates F(x) into r (owned segment).
	Residual(x, r []float64)
	// Jacobian returns the operator and preconditioner for J(x). The
	// driver only passes an x that is already ghost-consistent: the
	// caller's starting iterate (the caller's job) or a trial that the
	// last Residual call was evaluated at, so implementations whose
	// Residual exchanges ghosts need no exchange of their own here.
	Jacobian(x []float64) (Operator, PC)
}

// The inexact-Newton constants. With tol = max(Atol, Rtol·‖F₀‖), iteration
// k solves J dx = -F_k to the relative tolerance
//
//	η_k = clamp(max(η̂_k, etaTolFrac·tol/‖F_k‖), LinRtol, etaMax)
//	η̂_0 = etaFirst,  η̂_k = ewGamma·(‖F_k‖/‖F_{k-1}‖)²
//
// — Eisenstat–Walker choice 2 (SIAM J. Sci. Comput. 17, 1996), never past
// what the nonlinear tolerance can use and never looser than etaMax — and
// iteration k ≥ 1 keeps the previous operator and preconditioner (a chord
// step) when the residual such a step predicts, ‖F_k‖²/‖F_{k-1}‖, is at
// most chordFrac·tol. Every input is an already-reduced norm, so the
// sequence is the same on every rank, and nothing outlives a Solve. Measured on the four benchmark workloads (EXPERIMENTS.md "Inexact
// Newton (PR 24)"): etaFirst 1e-2 costs jet3d-mpi a Newton iteration on most
// solves and 1e-3 on 3 of 62, 1e-4 and 1e-5 on none; Krylov iterations per
// solve on bubble2d-stiff are flat (26–31) across all four values.
const (
	etaFirst   = 1e-4
	etaMax     = 1e-2
	ewGamma    = 0.9
	etaTolFrac = 0.1
	chordFrac  = 0.01
)

// Newton is a damped inexact Newton-Krylov driver. Like KSP it keeps a
// persistent workspace (work vectors plus the inner KSP), resliced within
// capacity when the problem shrinks, so repeated Solves on a problem no
// larger than any before allocate nothing. The inner KSP's Op, PC and Red
// are cleared when Solve returns, so the driver keeps no operator of the
// last solve alive.
type Newton struct {
	Red   Reducer
	KSP   Method  // inner Krylov method
	Rtol  float64 // relative nonlinear tolerance (default 1e-10, as in the paper)
	Atol  float64 // absolute nonlinear tolerance (default 1e-10)
	MaxIt int     // default 50
	// LinRtol is the tightest relative tolerance an inner solve is driven
	// to: the floor of the forcing sequence above (default 1e-8).
	LinRtol float64
	// Work is the inner KSP's Krylov workspace (nil: a private one).
	Work *Workspace

	// Iterations, LinearIterations and SolveTime (the inner Krylov
	// wall-clock) report the last solve's work; Jacobians counts its
	// p.Jacobian calls and ChordSteps the iterations that reused the
	// previous one (Jacobians = Iterations - ChordSteps; 1 when x already
	// solved the system and no iteration ran). Contraction is the
	// factor ‖F‖ fell by over the last iteration that built its Jacobian — a
	// chord step converges linearly by design and says nothing about the
	// Newton order. Last is the most recent inner Krylov result, kept so a
	// caller can attach linear-solver detail to a nonlinear failure report.
	Iterations       int
	LinearIterations int
	Jacobians        int
	ChordSteps       int
	SolveTime        time.Duration
	Contraction      float64
	Last             Result

	// exact is the tests' oracle: every inner solve goes to LinRtol and no
	// iteration is a chord step.
	exact bool

	ksp                *KSP
	r, dx, xTrial, rhs []float64
	red                [1]float64
}

// Solve drives F(x) = 0 starting from x. The bool reports convergence;
// the error reports configuration problems (an unknown inner method) —
// a stagnated Newton iteration is (false, nil), not an error.
func (nw *Newton) Solve(p NewtonProblem, x []float64) (bool, error) {
	ok, err := nw.solve(p, x)
	if k := nw.ksp; k != nil {
		k.Op, k.PC, k.Red = nil, nil, nil
	}
	return ok, err
}

func (nw *Newton) solve(p NewtonProblem, x []float64) (bool, error) {
	if !nw.KSP.Valid() {
		return false, &ErrUnknownMethod{Type: nw.KSP}
	}
	if nw.Rtol == 0 {
		nw.Rtol = 1e-10
	}
	if nw.Atol == 0 {
		nw.Atol = 1e-10
	}
	if nw.MaxIt == 0 {
		nw.MaxIt = 50
	}
	if nw.LinRtol == 0 {
		nw.LinRtol = 1e-8
	}
	if nw.Red == nil {
		nw.Red = SerialReducer{}
	}
	if nw.KSP == "" {
		nw.KSP = BiCGS
	}
	nw.Iterations, nw.LinearIterations, nw.SolveTime, nw.Contraction = 0, 0, 0, 0
	nw.Jacobians, nw.ChordSteps = 1, 0
	nw.Last = Result{}

	op, pc := p.Jacobian(x)
	n := op.Rows()
	full := op.FullLen()
	nw.r, nw.dx, nw.xTrial, nw.rhs = fit(nw.r, full), fit(nw.dx, full), fit(nw.xTrial, full), fit(nw.rhs, full)
	if nw.ksp == nil {
		nw.ksp = &KSP{}
	}
	nw.ksp.Work = nw.Work
	r, dx, xTrial, rhs := nw.r, nw.dx, nw.xTrial, nw.rhs
	p.Residual(x, r)
	r0 := nw.norm(r, n)
	if r0 <= nw.Atol {
		return true, nil
	}
	tol := math.Max(nw.Atol, nw.Rtol*r0)
	// fk is ‖F_k‖ and fprev ‖F_{k-1}‖ at the top of iteration k; chord says
	// iteration k-1 was a chord step, after which k rebuilds its Jacobian
	// whatever the predicate says: a chord step that missed is not repeated.
	fk, fprev, chord := r0, 0.0, false
	for it := 0; it < nw.MaxIt; it++ {
		nw.Iterations = it + 1
		eta := nw.LinRtol
		if !nw.exact {
			eta = forcing(it, fk, fprev, tol, nw.LinRtol)
		}
		chord = it > 0 && !chord && !nw.exact && fk*fk/fprev <= chordFrac*tol
		if chord {
			nw.ChordSteps++
		} else if it > 0 {
			op, pc = p.Jacobian(x)
			nw.Jacobians++
		}
		// Solve J dx = -r.
		for i := 0; i < n; i++ {
			rhs[i] = -r[i]
		}
		for i := range dx {
			dx[i] = 0
		}
		ksp := nw.ksp
		ksp.Op, ksp.PC, ksp.Red = op, pc, nw.Red
		ksp.Type, ksp.Rtol, ksp.Atol = nw.KSP, eta, nw.Atol*1e-2
		res, err := ksp.Solve(rhs, dx)
		if err != nil {
			return false, err
		}
		nw.Last = res
		nw.LinearIterations += res.Iterations
		nw.SolveTime += res.SolveTime
		// Backtracking line search.
		fprev = fk
		lambda := 1.0
		ok := false
		for ls := 0; ls < 8; ls++ {
			copy(xTrial, x)
			for i := 0; i < n; i++ {
				xTrial[i] += lambda * dx[i]
			}
			p.Residual(xTrial, r)
			rn := nw.norm(r, n)
			if rn < fk || rn <= nw.Atol {
				copy(x, xTrial)
				fk = rn
				ok = true
				break
			}
			lambda /= 2
		}
		if !ok {
			// Accept the full step anyway; stagnation will terminate below.
			for i := 0; i < n; i++ {
				x[i] += dx[i]
			}
			p.Residual(x, r)
			fk = nw.norm(r, n)
		}
		if !chord {
			nw.Contraction = fprev / fk
		}
		if fk <= tol {
			return true, nil
		}
	}
	return false, nil
}

// forcing is η_k of the inexact-Newton constants above: fk = ‖F_k‖,
// fprev = ‖F_{k-1}‖ (unused at k = 0).
func forcing(k int, fk, fprev, tol, linRtol float64) float64 {
	eta := etaFirst
	if k > 0 {
		q := fk / fprev
		eta = ewGamma * q * q
	}
	return math.Min(math.Max(math.Max(eta, etaTolFrac*tol/fk), linRtol), etaMax)
}

// norm is the global 2-norm over the owned segment, a method (not a
// per-Solve closure) so warm Solves stay allocation-free.
func (nw *Newton) norm(v []float64, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += v[i] * v[i]
	}
	nw.red[0] = s
	nw.Red.GlobalSumInto(nw.red[:])
	return math.Sqrt(nw.red[0])
}
