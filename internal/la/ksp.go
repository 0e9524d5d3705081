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

// KSP is a configured Krylov solve, mirroring the PETSc KSP object. A KSP
// owns a persistent workspace: the first Solve for a given operator shape
// allocates every work vector, and all later Solves reuse them, so the
// steady-state (warm) solve path performs no allocation. Hold one KSP per
// stage and keep calling Solve on it.
type KSP struct {
	Op    Operator
	PC    PC
	Red   Reducer
	Type  Method
	Rtol  float64 // relative tolerance (default 1e-8, as in the paper)
	Atol  float64 // absolute tolerance (default 1e-8)
	MaxIt int     // default 10000

	// Pool shards the dot/axpy kernels across workers; results are
	// bitwise identical to the serial path (chunk-canonical dots).
	Pool *par.Pool

	ws *kspWS
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
	k.ensureWS()
	t0 := time.Now()
	var res Result
	switch k.Type {
	case CG:
		res = k.cg(b, x)
	case BiCGS:
		res = k.bicgstab(b, x, false)
	default: // IBiCGS and the "" default
		res = k.bicgstab(b, x, true)
	}
	res.SolveTime = time.Since(t0)
	res.PCSetup = k.pcSetup
	k.pcSetup = 0
	return res, nil
}

// cg is preconditioned conjugate gradients for SPD operators.
func (k *KSP) cg(b, x []float64) Result {
	ws := k.ws
	n := ws.n
	r, z, p, ap := ws.r, ws.z, ws.p, ws.ap
	k.Op.Apply(x, ap)
	k.waxpby(r, 1, b, -1, ap, n)
	bnorm := k.norm(b, n)
	if bnorm == 0 {
		bnorm = 1
	}
	k.PC.Apply(r[:n], z[:n])
	copy(p[:n], z[:n])
	rz := k.dot(r, z, n)
	rnorm := k.norm(r, n)
	for it := 0; it < k.MaxIt; it++ {
		if rnorm <= k.Rtol*bnorm || rnorm <= k.Atol {
			return Result{Iterations: it, Converged: true, Residual: rnorm}
		}
		k.Op.Apply(p, ap)
		pap := k.dot(p, ap, n)
		if pap == 0 {
			return Result{Iterations: it, Converged: false, Residual: rnorm}
		}
		alpha := rz / pap
		k.axpy(alpha, p, x, n)
		k.axpy(-alpha, ap, r, n)
		k.PC.Apply(r[:n], z[:n])
		rzNew, rr := k.dot2(r, z, r, r, n)
		rnorm = math.Sqrt(rr)
		beta := rzNew / rz
		rz = rzNew
		k.waxpby(p, 1, z, beta, p, n)
	}
	return Result{Iterations: k.MaxIt, Converged: false, Residual: rnorm}
}

// bicgstab is preconditioned BiCGStab; with fused=true the two inner
// products per half-step are batched into single reductions, the
// communication-avoiding trick behind PETSc's IBCGS variant used for the
// pressure-Poisson solve in Table II.
func (k *KSP) bicgstab(b, x []float64, fused bool) Result {
	ws := k.ws
	n := ws.n
	r, rhat, p := ws.r, ws.rhat, ws.p
	v, s, t, ph, sh := ws.v, ws.s, ws.t, ws.ph, ws.sh
	k.Op.Apply(x, v)
	k.waxpby(r, 1, b, -1, v, n)
	copy(rhat, r[:n])
	for i := range v {
		v[i] = 0
	}
	bnorm := k.norm(b, n)
	if bnorm == 0 {
		bnorm = 1
	}
	rho, alpha, omega := 1.0, 1.0, 1.0
	rnorm := k.norm(r, n)
	for it := 0; it < k.MaxIt; it++ {
		if rnorm <= k.Rtol*bnorm || rnorm <= k.Atol {
			return Result{Iterations: it, Converged: true, Residual: rnorm}
		}
		rhoNew := k.dot(rhat, r, n)
		if rhoNew == 0 {
			return Result{Iterations: it, Converged: false, Residual: rnorm}
		}
		if it == 0 {
			copy(p[:n], r[:n])
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			// p = r + beta*(p - omega*v), in two aliasing-safe passes.
			k.waxpby(p, 1, p, -omega, v, n)
			k.waxpby(p, 1, r, beta, p, n)
		}
		rho = rhoNew
		k.PC.Apply(p[:n], ph[:n])
		k.Op.Apply(ph, v)
		rhv := k.dot(rhat, v, n)
		if rhv == 0 {
			return Result{Iterations: it, Converged: false, Residual: rnorm}
		}
		alpha = rho / rhv
		k.waxpby(s, 1, r, -alpha, v, n)
		snorm := k.norm(s, n)
		if snorm <= k.Rtol*bnorm || snorm <= k.Atol {
			k.axpy(alpha, ph, x, n)
			return Result{Iterations: it + 1, Converged: true, Residual: snorm}
		}
		k.PC.Apply(s[:n], sh[:n])
		k.Op.Apply(sh, t)
		var tt, ts float64
		if fused {
			tt, ts = k.dot2(t, t, t, s, n)
		} else {
			tt = k.dot(t, t, n)
			ts = k.dot(t, s, n)
		}
		if tt == 0 {
			return Result{Iterations: it, Converged: false, Residual: rnorm}
		}
		omega = ts / tt
		k.axpy2(alpha, ph, omega, sh, x, n)
		k.waxpby(r, 1, s, -omega, t, n)
		rnorm = k.norm(r, n)
		if omega == 0 {
			return Result{Iterations: it + 1, Converged: false, Residual: rnorm}
		}
	}
	return Result{Iterations: k.MaxIt, Converged: false, Residual: rnorm}
}
