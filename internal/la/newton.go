package la

import (
	"math"
	"time"

	"proteus/internal/par"
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

// Newton is a damped Newton-Krylov driver. Like KSP it keeps a persistent
// workspace (work vectors plus the inner KSP and its workspace), so
// repeated Solves on the same problem shape allocate nothing.
type Newton struct {
	Red     Reducer
	KSP     Method  // inner Krylov method
	Rtol    float64 // relative nonlinear tolerance (default 1e-10, as in the paper)
	Atol    float64 // absolute nonlinear tolerance (default 1e-10)
	MaxIt   int     // default 50
	LinRtol float64 // inner linear relative tolerance (default 1e-8)

	// Pool shards the inner solver's kernels (see KSP.Pool).
	Pool *par.Pool

	// Iterations, LinearIterations and SolveTime (the inner Krylov
	// wall-clock) report the last solve's work; Contraction is the factor
	// ‖F‖ fell by over its last iteration. Last is the most recent inner
	// Krylov result, kept so a caller can attach linear-solver detail to a
	// nonlinear failure report.
	Iterations       int
	LinearIterations int
	SolveTime        time.Duration
	Contraction      float64
	Last             Result

	ksp                *KSP
	r, dx, xTrial, rhs []float64
	red                [1]float64
}

// Solve drives F(x) = 0 starting from x. The bool reports convergence;
// the error reports configuration problems (an unknown inner method) —
// a stagnated Newton iteration is (false, nil), not an error.
func (nw *Newton) Solve(p NewtonProblem, x []float64) (bool, error) {
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
	nw.Last = Result{}

	op, pc := p.Jacobian(x)
	n := op.Rows()
	full := op.FullLen()
	if len(nw.r) != full {
		nw.r = make([]float64, full)
		nw.dx = make([]float64, full)
		nw.xTrial = make([]float64, full)
		nw.rhs = make([]float64, full)
	}
	if nw.ksp == nil {
		nw.ksp = &KSP{}
	}
	r, dx, xTrial, rhs := nw.r, nw.dx, nw.xTrial, nw.rhs
	p.Residual(x, r)
	r0 := nw.norm(r, n)
	if r0 <= nw.Atol {
		return true, nil
	}
	rprev := r0
	for it := 0; it < nw.MaxIt; it++ {
		nw.Iterations = it + 1
		if it > 0 {
			op, pc = p.Jacobian(x)
		}
		// Solve J dx = -r.
		for i := 0; i < n; i++ {
			rhs[i] = -r[i]
		}
		for i := range dx {
			dx[i] = 0
		}
		ksp := nw.ksp
		ksp.Op, ksp.PC, ksp.Red, ksp.Pool = op, pc, nw.Red, nw.Pool
		ksp.Type, ksp.Rtol, ksp.Atol = nw.KSP, nw.LinRtol, nw.Atol*1e-2
		res, err := ksp.Solve(rhs, dx)
		if err != nil {
			return false, err
		}
		nw.Last = res
		nw.LinearIterations += res.Iterations
		nw.SolveTime += res.SolveTime
		// Backtracking line search.
		rbefore := rprev
		lambda := 1.0
		ok := false
		for ls := 0; ls < 8; ls++ {
			copy(xTrial, x)
			for i := 0; i < n; i++ {
				xTrial[i] += lambda * dx[i]
			}
			p.Residual(xTrial, r)
			rn := nw.norm(r, n)
			if rn < rprev || rn <= nw.Atol {
				copy(x, xTrial)
				rprev = rn
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
			rprev = nw.norm(r, n)
		}
		nw.Contraction = rbefore / rprev
		if rprev <= nw.Rtol*r0 || rprev <= nw.Atol {
			return true, nil
		}
	}
	return false, nil
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
