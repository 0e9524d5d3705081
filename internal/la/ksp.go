package la

import (
	"fmt"
	"math"
	"time"

	"proteus/internal/par"
)

// Reducer provides global reductions over ranks, allocation-free on the
// caller side: dst is summed element-wise across ranks in place. A serial
// Reducer leaves dst untouched.
type Reducer interface {
	GlobalSumInto(dst []float64)
}

// SerialReducer is a Reducer for single-rank use.
type SerialReducer struct{}

// GlobalSumInto leaves dst unchanged.
func (SerialReducer) GlobalSumInto([]float64) {}

// Method selects a Krylov solver.
type Method string

// Krylov method names mirror the PETSc -ksp_type values from Table II.
const (
	CG     Method = "cg"
	BiCGS  Method = "bcgs"
	IBiCGS Method = "ibcgs"
)

// Valid reports whether m names a known Krylov method (the empty string
// is the documented IBiCGS default).
func (m Method) Valid() bool {
	switch m {
	case CG, BiCGS, IBiCGS, "":
		return true
	}
	return false
}

// ErrUnknownMethod reports a KSP configured with a Type that names no
// implemented Krylov method. It is returned from Solve (and from
// Newton.Solve for the inner method) instead of panicking at solve time,
// so a mistyped per-stage config surfaces as a recoverable run error.
type ErrUnknownMethod struct {
	Type Method
}

func (e *ErrUnknownMethod) Error() string {
	return fmt.Sprintf("la: unknown KSP type %q (known: cg, bcgs, ibcgs)", e.Type)
}

// KSP is a configured Krylov solve, mirroring the PETSc KSP object. It
// runs in a Workspace (Work, or a private one when Work is nil) whose
// vectors grow to the largest operator solved in them and are resliced for
// smaller ones, so the steady-state (warm) solve path performs no
// allocation. Op, PC and Red are read only during Solve: a caller that
// keeps the KSP across mesh generations clears them once the solve
// returns, so the KSP does not keep the previous generation alive.
type KSP struct {
	Op    Operator
	PC    PC
	Red   Reducer
	Type  Method
	Rtol  float64 // relative tolerance (default 1e-8, as in the paper)
	Atol  float64 // absolute tolerance (default 1e-8)
	MaxIt int     // default 10000

	// Pool is not read: a rank runs its vector kernels on its own
	// goroutine.
	//
	// Deprecated: kept because benchmark/probes.go sets it.
	Pool *par.Pool

	// Work is the Krylov workspace, shared by KSPs whose solves never
	// overlap (nil: the KSP keeps a private one in own).
	Work *Workspace

	own *Workspace
	// pcSetup accumulates the preconditioner build/refresh cost reported
	// through AddPCSetup since the last Solve.
	pcSetup time.Duration
}

// Result reports a solve outcome.
type Result struct {
	Iterations int
	Converged  bool
	Residual   float64
	// SolveTime is the wall-clock of the Krylov iteration itself; PCSetup
	// is the preconditioner build/refresh cost the caller reported via
	// AddPCSetup before this Solve. Keeping them separate stops expensive
	// setups (ILU factorization, multigrid hierarchy refresh) from
	// inflating per-iteration timings in PC comparisons.
	SolveTime time.Duration
	PCSetup   time.Duration
}

// AddPCSetup records preconditioner setup/refresh wall-clock spent on
// behalf of the next Solve; the accumulated total is returned in that
// Solve's Result.PCSetup and then reset.
func (k *KSP) AddPCSetup(d time.Duration) { k.pcSetup += d }

func (k *KSP) defaults() {
	if k.Rtol == 0 {
		k.Rtol = 1e-8
	}
	if k.Atol == 0 {
		k.Atol = 1e-8
	}
	if k.MaxIt == 0 {
		k.MaxIt = 10000
	}
	if k.PC == nil {
		k.PC = PCNone{}
	}
	if k.Red == nil {
		k.Red = SerialReducer{}
	}
}

// Solve solves Op*x = b, using x as the initial guess, and overwrites x
// with the solution. b and x are full local vectors; only owned segments
// are read/written by the solver itself. The error reports configuration
// problems (an unknown Type) — numerical non-convergence is reported
// through Result.Converged, not the error.
func (k *KSP) Solve(b, x []float64) (Result, error) {
	if !k.Type.Valid() {
		return Result{}, &ErrUnknownMethod{Type: k.Type}
	}
	k.defaults()
	ws := k.workspace()
	full, n := k.Op.FullLen(), k.Op.Rows()
	t0 := time.Now()
	var res Result
	switch k.Type {
	case CG:
		ws.size(4, full, n)
		res = k.cg(ws, b, x, n)
	case BiCGS:
		ws.size(8, full, n)
		res = k.bicgstab(ws, b, x, n, false)
	default: // IBiCGS and the "" default
		ws.size(8, full, n)
		res = k.bicgstab(ws, b, x, n, true)
	}
	res.SolveTime = time.Since(t0)
	res.PCSetup = k.pcSetup
	k.pcSetup = 0
	return res, nil
}

// cg is preconditioned conjugate gradients for SPD operators.
func (k *KSP) cg(ws *Workspace, b, x []float64, n int) Result {
	r, z, p, ap := ws.vec[0], ws.vec[1], ws.vec[2], ws.vec[3]
	k.Op.Apply(x, ap)
	waxpby(r, 1, b, -1, ap, n)
	bnorm := ws.norm(k.Red, b, n)
	if bnorm == 0 {
		bnorm = 1
	}
	k.PC.Apply(r[:n], z[:n])
	copy(p[:n], z[:n])
	rz := ws.dot(k.Red, r, z, n)
	rnorm := ws.norm(k.Red, r, n)
	for it := 0; it < k.MaxIt; it++ {
		if rnorm <= k.Rtol*bnorm || rnorm <= k.Atol {
			return Result{Iterations: it, Converged: true, Residual: rnorm}
		}
		k.Op.Apply(p, ap)
		pap := ws.dot(k.Red, p, ap, n)
		if pap == 0 {
			return Result{Iterations: it, Converged: false, Residual: rnorm}
		}
		alpha := rz / pap
		axpy(alpha, p, x, n)
		axpy(-alpha, ap, r, n)
		k.PC.Apply(r[:n], z[:n])
		rzNew, rr := ws.dot2(k.Red, r, z, r, r, n)
		rnorm = math.Sqrt(rr)
		beta := rzNew / rz
		rz = rzNew
		waxpby(p, 1, z, beta, p, n)
	}
	return Result{Iterations: k.MaxIt, Converged: false, Residual: rnorm}
}

// bicgstab is preconditioned BiCGStab; with fused=true the two inner
// products per half-step are batched into single reductions, the
// communication-avoiding trick behind PETSc's IBCGS variant used for the
// pressure-Poisson solve in Table II.
func (k *KSP) bicgstab(ws *Workspace, b, x []float64, n int, fused bool) Result {
	r, rhat, p := ws.vec[0], ws.vec[1], ws.vec[2]
	v, s, t, ph, sh := ws.vec[3], ws.vec[4], ws.vec[5], ws.vec[6], ws.vec[7]
	k.Op.Apply(x, v)
	waxpby(r, 1, b, -1, v, n)
	copy(rhat, r[:n])
	for i := range v {
		v[i] = 0
	}
	bnorm := ws.norm(k.Red, b, n)
	if bnorm == 0 {
		bnorm = 1
	}
	rho, alpha, omega := 1.0, 1.0, 1.0
	rnorm := ws.norm(k.Red, r, n)
	for it := 0; it < k.MaxIt; it++ {
		if rnorm <= k.Rtol*bnorm || rnorm <= k.Atol {
			return Result{Iterations: it, Converged: true, Residual: rnorm}
		}
		rhoNew := ws.dot(k.Red, rhat, r, n)
		if rhoNew == 0 {
			return Result{Iterations: it, Converged: false, Residual: rnorm}
		}
		if it == 0 {
			copy(p[:n], r[:n])
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			// p = r + beta*(p - omega*v), in two aliasing-safe passes.
			waxpby(p, 1, p, -omega, v, n)
			waxpby(p, 1, r, beta, p, n)
		}
		rho = rhoNew
		k.PC.Apply(p[:n], ph[:n])
		k.Op.Apply(ph, v)
		rhv := ws.dot(k.Red, rhat, v, n)
		if rhv == 0 {
			return Result{Iterations: it, Converged: false, Residual: rnorm}
		}
		alpha = rho / rhv
		waxpby(s, 1, r, -alpha, v, n)
		snorm := ws.norm(k.Red, s, n)
		if snorm <= k.Rtol*bnorm || snorm <= k.Atol {
			axpy(alpha, ph, x, n)
			return Result{Iterations: it + 1, Converged: true, Residual: snorm}
		}
		k.PC.Apply(s[:n], sh[:n])
		k.Op.Apply(sh, t)
		var tt, ts float64
		if fused {
			tt, ts = ws.dot2(k.Red, t, t, t, s, n)
		} else {
			tt = ws.dot(k.Red, t, t, n)
			ts = ws.dot(k.Red, t, s, n)
		}
		if tt == 0 {
			return Result{Iterations: it, Converged: false, Residual: rnorm}
		}
		omega = ts / tt
		axpy2(alpha, ph, omega, sh, x, n)
		waxpby(r, 1, s, -omega, t, n)
		rnorm = ws.norm(k.Red, r, n)
		if omega == 0 {
			return Result{Iterations: it + 1, Converged: false, Residual: rnorm}
		}
	}
	return Result{Iterations: k.MaxIt, Converged: false, Residual: rnorm}
}
