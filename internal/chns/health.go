package chns

import (
	"fmt"
	"math"

	"proteus/internal/fault"
	"proteus/internal/la"
	"proteus/internal/par"
)

// Stage names one solve stage of the time block. The values double as
// the stage filter strings of the fault-injection spec.
type Stage string

const (
	StageCH Stage = "ch"
	StageNS Stage = "ns"
	StagePP Stage = "pp"
	StageVU Stage = "vu"
)

// Kind values of ErrDiverged, the failure taxonomy of a solve stage.
const (
	// DivergeKSP: the stage's linear solve reported non-convergence
	// (iteration cap, breakdown, or an injected divergence).
	DivergeKSP = "ksp"
	// DivergeNewton: the CH Newton iteration failed to converge.
	DivergeNewton = "newton"
	// DivergeNonFinite: the post-stage finite scan found NaN/Inf in an
	// output field — silent corruption turned into a typed error.
	DivergeNonFinite = "nonfinite"
)

// ErrDiverged reports a failed solve stage: which stage, how it failed,
// and the last linear result behind the failure. All failure signals
// feeding it are globally reduced, so every rank of a collective step
// returns the same verdict — the property the retry loop relies on.
type ErrDiverged struct {
	Stage Stage
	Kind  string // DivergeKSP | DivergeNewton | DivergeNonFinite
	// Result is the stage's last linear solve outcome.
	Result la.Result
	// NewtonIterations is set for CH (Kind DivergeNewton) failures.
	NewtonIterations int
}

func (e *ErrDiverged) Error() string {
	switch e.Kind {
	case DivergeNewton:
		return fmt.Sprintf("chns: %s stage diverged: Newton stalled after %d iterations (last linear: %d its, residual %.3e)",
			e.Stage, e.NewtonIterations, e.Result.Iterations, e.Result.Residual)
	case DivergeNonFinite:
		return fmt.Sprintf("chns: %s stage produced NaN/Inf field values (last linear: %d its, residual %.3e)",
			e.Stage, e.Result.Iterations, e.Result.Residual)
	default:
		return fmt.Sprintf("chns: %s stage diverged: linear solve not converged after %d iterations (residual %.3e)",
			e.Stage, e.Result.Iterations, e.Result.Residual)
	}
}

// StageReport is one stage's solve outcome inside a StepReport.
type StageReport struct {
	Stage Stage `json:"stage"`
	// Result is the stage's (last) linear solve result; for VU, the last
	// component solve's, with Iterations summed over the components.
	Result la.Result `json:"result"`
	// NewtonIterations, NewtonConverged and NewtonContraction (the factor
	// the nonlinear residual fell by over the last iteration that built its
	// Jacobian; a closing chord step, linear by design, is not what it
	// reports) are set for the CH stage.
	NewtonIterations  int     `json:"newton_iterations,omitempty"`
	NewtonConverged   bool    `json:"newton_converged,omitempty"`
	NewtonContraction float64 `json:"newton_contraction,omitempty"`
}

// StepReport carries every stage's solve outcome for one time block.
// Stages that did not run (e.g. NS/PP/VU under a prescribed velocity)
// keep their zero value.
type StepReport struct {
	CH StageReport `json:"ch"`
	NS StageReport `json:"ns"`
	PP StageReport `json:"pp"`
	VU StageReport `json:"vu"`
}

// initFiniteScan builds the persistent sharded NaN/Inf scan: a prebuilt
// pool closure and one padded flag slot per worker, so the warm per-step
// scan performs no allocation and never shares cache lines.
func (s *Solver) initFiniteScan() {
	nw := s.pool.Workers()
	s.finBad = make([]uint64, nw*8)
	s.finRun = func(w int) {
		lo, hi := par.Shard(w, nw, s.finN)
		v := s.finVec
		var bad uint64
		for i := lo; i < hi; i++ {
			// v-v is 0 for every finite value and NaN for NaN/±Inf; the
			// NaN != 0 comparison is true, catching both without calls.
			if d := v[i] - v[i]; d != 0 {
				bad = 1
			}
		}
		s.finBad[w*8] = bad
	}
}

// scanBad shards a NaN/Inf scan of v[:n] (the owned segment) across the
// solver pool and returns a nonzero local verdict if any entry is
// non-finite. Allocation-free warm.
func (s *Solver) scanBad(v []float64, n int) uint64 {
	if n == 0 {
		return 0
	}
	s.finVec, s.finN = v, n
	s.pool.Run(s.finRun)
	s.finVec = nil
	var bad uint64
	for w := 0; w < s.pool.Workers(); w++ {
		bad |= s.finBad[w*8]
		s.finBad[w*8] = 0
	}
	return bad
}

// checkFinite reduces the local scan verdict globally — a NaN on one
// rank must fail the step on every rank or the collective call sequence
// desynchronizes — and converts a hit into the typed divergence error.
func (s *Solver) checkFinite(stage Stage, bad uint64, res la.Result) error {
	s.finRed[0] = float64(bad)
	s.M.GlobalSumInto(s.finRed[:])
	if s.finRed[0] != 0 {
		return &ErrDiverged{Stage: stage, Kind: DivergeNonFinite, Result: res}
	}
	return nil
}

// pokeNaN is the FieldNaN injection point: corrupt the first owned entry
// of v on the matching rank. The finite scan must catch it.
func (s *Solver) pokeNaN(stage Stage, v []float64) {
	if s.Fault.Fire(fault.FieldNaN, string(stage)) && s.M.NumOwned > 0 {
		v[0] = math.NaN()
	}
}
