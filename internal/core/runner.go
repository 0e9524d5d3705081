package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"proteus/internal/chns"
	"proteus/internal/par"
	"proteus/internal/vtk"
)

// RunOptions bounds one RunUntil call and wires its periodic outputs.
// At least one of Steps and MaxWall must be set.
type RunOptions struct {
	// Steps is the step budget for this call (<= 0: unbounded, MaxWall
	// must then be set). On a restart this is the number of *additional*
	// steps, not the absolute step index.
	Steps int
	// MaxWall is the wall-clock budget; rank 0's clock decides and the
	// decision is broadcast, so every rank stops at the same step.
	MaxWall time.Duration

	// CkptEvery writes a checkpoint to CkptBase at every step whose
	// absolute index (Simulation.StepIndex) is a multiple of n (0: off).
	// Keying the cadence to the absolute index — not the steps done in
	// this call — makes a restarted run snapshot at exactly the same
	// steps as an uninterrupted one. FinalCkpt writes one after the loop
	// ends. Each write creates a step-stamped generation under CkptBase
	// (CkptBase-g<step>); ckpt.ReadLatestGood resolves the base back to
	// the newest intact one.
	CkptEvery int
	CkptBase  string
	FinalCkpt bool

	// VTKEvery writes the field set under VTKBase_sNNNNNN at every step
	// whose absolute index is a multiple of n (0: off), so restarted and
	// uninterrupted runs produce identical snapshot series; FinalVTK
	// writes once under VTKBase after the loop.
	VTKEvery int
	VTKBase  string
	FinalVTK bool

	// CkptRetain bounds the number of snapshot generations kept under
	// CkptBase (0: keep all). Each periodic checkpoint writes a fresh
	// generation (CkptBase-g<step>) and prunes the oldest beyond this.
	CkptRetain int

	// MaxRetries is the per-step retry budget for recoverable failures
	// (*chns.ErrDiverged): each retry rolls the state back to the
	// pre-step snapshot and halves dt (down to DtFloor). 0 disables
	// recovery — the first divergence fails the run.
	MaxRetries int
	// DtFloor bounds the back-off (default DtNominal/16).
	DtFloor float64
	// RelaxAfter is the clean-step streak after which a backed-off dt
	// doubles back toward nominal (default 4).
	RelaxAfter int
	// MaxCkptFallbacks bounds how many times an exhausted retry budget
	// may fall back to the last intact on-disk checkpoint under CkptBase
	// (default 1; < 0 disables the fallback).
	MaxCkptFallbacks int

	// OnStep runs after every step on every rank (collective calls are
	// safe inside it) — the hook for per-step stats and logging.
	OnStep func(s *Simulation)
}

// RunResult reports what a RunUntil call actually did.
type RunResult struct {
	StepsDone int
	Wall      time.Duration
	// Stopped is "steps" or "wall".
	Stopped string
}

// RunUntil owns the run loop every driver shares: it advances the
// simulation until the step or wall-clock budget is exhausted, firing
// periodic checkpoints, VTK dumps and the per-step callback.
//
// Recovery (MaxRetries > 0): every step is preceded by an in-memory
// state snapshot. A step failing with *chns.ErrDiverged rolls back to
// the snapshot and retries at half the dt (bounded by DtFloor); after
// RelaxAfter clean steps a backed-off dt doubles back toward nominal.
// When a step exhausts its retry budget, the run falls back to the last
// intact on-disk checkpoint under CkptBase (up to MaxCkptFallbacks
// times) and replays from there — the step budget is an absolute target
// computed at entry, so replayed steps do not shorten the run (StepsDone
// counts every successful step including replays). Exhaustion of the
// whole ladder returns *ErrRunFailed carrying the recovery history,
// which also accumulates on the Simulation for Stats. Collective.
func (s *Simulation) RunUntil(o RunOptions) (RunResult, error) {
	var res RunResult
	if o.Steps <= 0 && o.MaxWall <= 0 {
		return res, fmt.Errorf("core: RunUntil needs a step or wall-clock budget")
	}
	if o.CkptEvery > 0 && o.CkptBase == "" {
		return res, fmt.Errorf("core: RunUntil: CkptEvery set without CkptBase")
	}
	if o.VTKEvery > 0 && o.VTKBase == "" {
		return res, fmt.Errorf("core: RunUntil: VTKEvery set without VTKBase")
	}
	if s.DtNominal == 0 {
		s.DtNominal = s.Cfg.Opt.Dt
	}
	dtFloor := o.DtFloor
	if dtFloor == 0 {
		dtFloor = s.DtNominal / 16
	}
	relaxAfter := o.RelaxAfter
	if relaxAfter == 0 {
		relaxAfter = 4
	}
	maxFallbacks := o.MaxCkptFallbacks
	if maxFallbacks == 0 {
		maxFallbacks = 1
	}
	start := time.Now()
	lastCkpt := -1
	// The step budget is an absolute target: a checkpoint fallback
	// rewinds StepIndex, and the rewound steps must be replayed rather
	// than silently skipped.
	targetStep := -1
	if o.Steps > 0 {
		targetStep = s.StepIndex + o.Steps
	}
	var snap stepSnapshot
	retries := 0     // retries spent on the step currently being attempted
	cleanStreak := 0 // consecutive clean steps while dt is backed off
	fallbacks := 0
	for {
		if targetStep >= 0 && s.StepIndex >= targetStep {
			res.Stopped = "steps"
			break
		}
		if o.MaxWall > 0 {
			over := time.Since(start) >= o.MaxWall
			if par.Bcast(s.Comm, 0, over) {
				res.Stopped = "wall"
				break
			}
		}
		if o.MaxRetries > 0 {
			s.saveSnapshot(&snap)
		}
		if err := s.Step(); err != nil {
			var div *chns.ErrDiverged
			if o.MaxRetries <= 0 || !errors.As(err, &div) {
				return res, err
			}
			cleanStreak = 0
			if retries < o.MaxRetries {
				retries++
				s.rollback(&snap)
				dt := s.Cfg.Opt.Dt / 2
				if dt < dtFloor {
					dt = dtFloor
				}
				s.SetDt(dt)
				s.Retries++
				s.Recovery = append(s.Recovery, RecoveryEvent{
					Step: snap.stepIndex, Stage: string(div.Stage), Kind: div.Kind,
					Dt: dt, Retry: retries,
					Residual: div.Result.Residual, Iterations: div.Result.Iterations,
				})
				continue
			}
			// Retry budget exhausted: rewind to the last intact on-disk
			// snapshot and replay with a fresh budget at nominal dt.
			if o.CkptBase == "" || fallbacks >= maxFallbacks {
				return res, &ErrRunFailed{Step: snap.stepIndex, Err: err, Recovery: s.Recovery}
			}
			fallbacks++
			if rerr := s.restoreFromLatest(o.CkptBase); rerr != nil {
				return res, &ErrRunFailed{
					Step:     snap.stepIndex,
					Err:      fmt.Errorf("%v (checkpoint fallback also failed: %w)", err, rerr),
					Recovery: s.Recovery,
				}
			}
			s.SetDt(s.DtNominal)
			retries = 0
			s.CkptFallbacks++
			s.Recovery = append(s.Recovery, RecoveryEvent{
				Step: snap.stepIndex, Stage: string(div.Stage), Kind: "ckpt-fallback",
				Dt:       s.DtNominal,
				Residual: div.Result.Residual, Iterations: div.Result.Iterations,
			})
			continue
		}
		res.StepsDone++
		retries = 0
		if s.Cfg.Opt.Dt < s.DtNominal {
			cleanStreak++
			if cleanStreak >= relaxAfter {
				dt := s.Cfg.Opt.Dt * 2
				if dt > s.DtNominal {
					dt = s.DtNominal
				}
				s.SetDt(dt)
				cleanStreak = 0
			}
		}
		if o.OnStep != nil {
			o.OnStep(s)
		}
		// Cadences test the absolute step index, not StepsDone: a run
		// restarted mid-interval must keep snapshotting at the same
		// absolute steps as the uninterrupted run it resumes.
		if o.CkptEvery > 0 && s.StepIndex%o.CkptEvery == 0 {
			if err := s.CheckpointGeneration(o.CkptBase, o.CkptRetain); err != nil {
				return res, err
			}
			lastCkpt = s.StepIndex
		}
		if o.VTKEvery > 0 && s.StepIndex%o.VTKEvery == 0 {
			if err := s.WriteVTK(fmt.Sprintf("%s_s%06d", o.VTKBase, s.StepIndex)); err != nil {
				return res, err
			}
		}
	}
	res.Wall = time.Since(start)
	// Skip the final write when the periodic cadence just snapshotted
	// this very step — it would serialize identical state twice.
	if o.FinalCkpt && o.CkptBase != "" && lastCkpt != s.StepIndex {
		if err := s.CheckpointGeneration(o.CkptBase, o.CkptRetain); err != nil {
			return res, err
		}
	}
	if o.FinalVTK && o.VTKBase != "" {
		if err := s.WriteVTK(o.VTKBase); err != nil {
			return res, err
		}
	}
	return res, nil
}

// WriteVTK dumps the standard field set (φ, μ, velocity, pressure,
// elemental Cahn number) under path base. Collective.
func (s *Simulation) WriteVTK(base string) error {
	return vtk.WriteFields(s.Mesh, base, s.Solver.PhiMu, s.Solver.Vel, s.Solver.P, s.Solver.ElemCn)
}

// RunStats is the machine-readable run summary dumped by -stats-json:
// the accumulated stage timers (including the remesh sub-timers), global
// mesh size, remesh counts and the level histogram — what the exact count
// pins of internal/scenario read.
type RunStats struct {
	Scenario            string  `json:"scenario,omitempty"`
	Preset              string  `json:"preset,omitempty"`
	Ranks               int     `json:"ranks"`
	Step                int     `json:"step"`
	Time                float64 `json:"time"`
	GlobalElems         int64   `json:"global_elems"`
	GlobalDofs          int64   `json:"global_dofs"`
	RemeshCount         int     `json:"remesh_count"`
	RemeshRounds        int     `json:"remesh_rounds"`
	PartitionOnlyRounds int     `json:"partition_only_rounds"`
	// Incremental-remesh accounting (the full sub-timer split lives in
	// timers.RemeshStages): how many rounds took the ripple balance and
	// the mesh patch versus their from-scratch fallbacks, the total
	// ripple refine rounds, and the mean global dirty fraction the
	// incremental/full decision saw.
	IncrBalanceRounds  int `json:"incr_balance_rounds"`
	FullBalanceRounds  int `json:"full_balance_rounds"`
	IncrBuildRounds    int `json:"incr_build_rounds"`
	MigrateBuildRounds int `json:"migrate_build_rounds"`
	FullBuildRounds    int `json:"full_build_rounds"`
	// Why each full build ran; the two reasons sum to FullBuildRounds.
	FullPartitionRounds int     `json:"full_partition_rounds"`
	FullDirtyRounds     int     `json:"full_dirty_rounds"`
	RippleRounds        int     `json:"ripple_rounds"`
	DirtyFraction       float64 `json:"dirty_fraction"`
	// Remesh-aware multigrid refresh accounting: coarse ladder levels
	// reused / patched across hierarchy refreshes, and transfer rows
	// patched through the element remap vs re-resolved by point location.
	MGLevelsReused  int `json:"mg_levels_reused"`
	MGLevelsPatched int `json:"mg_levels_patched"`
	MGRowsPatched   int `json:"mg_rows_patched"`
	MGRowsResolved  int `json:"mg_rows_resolved"`
	// Post-remesh solves (the first full step after each remesh): how many
	// there were and the mean per-stage Krylov iteration count on them —
	// the numbers the warm-start path is judged by.
	PostRemeshSteps int                `json:"post_remesh_steps"`
	PostRemeshIters map[string]float64 `json:"post_remesh_iters_mean,omitempty"`
	LevelHistogram  []float64          `json:"level_histogram"`
	Timers          chns.Timers        `json:"timers"`
	// KrylovIters summarizes the per-stage linear-solver iteration counts
	// (keys "ch", "ns", "pp", "vu"), making preconditioner comparisons —
	// the GMG-vs-ILU0 iteration claim in particular — machine-checkable
	// from the stats dump alone. "ch_newton" is the CH stage's nonlinear
	// iteration count per step, the multiplier on all of CH's linear work.
	KrylovIters map[string]IterStats `json:"krylov_iters"`
	// CH Newton iterations that assembled and factored their Jacobian vs
	// chord steps that reused the previous one; the two sum to
	// KrylovIters["ch_newton"].Total.
	CHJacobians  int `json:"ch_jacobians"`
	CHChordSteps int `json:"ch_chord_steps"`
	// CH element-block sharing: sweeps that integrated K_m(φ) into the
	// solver's block store vs sweeps that read it back (fills = Newton
	// iterations + steps + rejected line-search trials, reuses =
	// CHJacobians).
	CHBlockFills  int `json:"ch_block_fills"`
	CHBlockReuses int `json:"ch_block_reuses"`
	// Recovery accounting (see RunUntil): rolled-back retries, checkpoint
	// fallbacks, and the per-event history.
	Retries       int             `json:"retries"`
	CkptFallbacks int             `json:"ckpt_fallbacks"`
	Recovery      []RecoveryEvent `json:"recovery,omitempty"`
}

// IterStats summarizes one stage's linear-solve iteration counts over a
// run: per-solve min/mean/max and the totals behind them. CH counts one
// "solve" per time step (the Newton driver aggregates its inner Krylov
// iterations); VU counts each component solve.
type IterStats struct {
	Solves int     `json:"solves"`
	Min    int     `json:"min"`
	Mean   float64 `json:"mean"`
	Max    int     `json:"max"`
	Total  int     `json:"total"`
}

func iterStats(st chns.StageTimes) IterStats {
	is := IterStats{Solves: st.Solves, Min: st.ItMin, Max: st.ItMax, Total: st.Iterations}
	if st.Solves > 0 {
		is.Mean = float64(st.Iterations) / float64(st.Solves)
	}
	return is
}

// newtonStats is iterStats over the stage's Newton iteration counters.
func newtonStats(st chns.StageTimes) IterStats {
	st.ItMin, st.ItMax, st.Iterations = st.NewtonMin, st.NewtonMax, st.Newton
	return iterStats(st)
}

// Stats assembles the run summary. Collective (global reductions); every
// rank receives the same value.
func (s *Simulation) Stats() RunStats {
	t := s.Timers()
	dirtyFrac := 0.0
	if t.RemeshStages.TotalOctants > 0 {
		dirtyFrac = float64(t.RemeshStages.DirtyOctants) / float64(t.RemeshStages.TotalOctants)
	}
	var postIters map[string]float64
	if n := t.RemeshStages.PostSteps; n > 0 {
		postIters = map[string]float64{
			"ch": float64(t.RemeshStages.PostCHIters) / float64(n),
			"ns": float64(t.RemeshStages.PostNSIters) / float64(n),
			"pp": float64(t.RemeshStages.PostPPIters) / float64(n),
			"vu": float64(t.RemeshStages.PostVUIters) / float64(n),
		}
	}
	return RunStats{
		Scenario:            s.ScenarioName,
		Preset:              s.PresetName,
		Ranks:               s.Comm.Size(),
		Step:                s.StepIndex,
		Time:                s.Time,
		GlobalElems:         s.GlobalElems(),
		GlobalDofs:          s.Mesh.NumGlobal,
		RemeshCount:         s.RemeshCount,
		RemeshRounds:        t.RemeshStages.Rounds,
		PartitionOnlyRounds: t.RemeshStages.PartitionOnly,
		IncrBalanceRounds:   t.RemeshStages.IncrBalance,
		FullBalanceRounds:   t.RemeshStages.FullBalance,
		IncrBuildRounds:     t.RemeshStages.IncrBuild,
		MigrateBuildRounds:  t.RemeshStages.MigrateBuild,
		FullBuildRounds:     t.RemeshStages.FullBuild,
		FullPartitionRounds: t.RemeshStages.FullPartitionOnly,
		FullDirtyRounds:     t.RemeshStages.FullDirtyFrac,
		RippleRounds:        t.RemeshStages.RippleRounds,
		DirtyFraction:       dirtyFrac,
		MGLevelsReused:      t.RemeshStages.MGLevelsReused,
		MGLevelsPatched:     t.RemeshStages.MGLevelsPatched,
		MGRowsPatched:       t.RemeshStages.MGRowsPatched,
		MGRowsResolved:      t.RemeshStages.MGRowsResolved,
		PostRemeshSteps:     t.RemeshStages.PostSteps,
		PostRemeshIters:     postIters,
		LevelHistogram:      s.LevelHistogram(),
		Timers:              t,
		KrylovIters: map[string]IterStats{
			"ch":        iterStats(t.CH),
			"ch_newton": newtonStats(t.CH),
			"ns":        iterStats(t.NS),
			"pp":        iterStats(t.PP),
			"vu":        iterStats(t.VU),
		},
		CHJacobians:   t.CH.Jacobians,
		CHChordSteps:  t.CH.ChordSteps,
		CHBlockFills:  t.CH.BlockFills,
		CHBlockReuses: t.CH.BlockReuses,
		Retries:       s.Retries,
		CkptFallbacks: s.CkptFallbacks,
		Recovery:      s.Recovery,
	}
}

// WriteStatsJSON writes any stats payload (one RunStats or a slice of
// them) as indented JSON. Call from one rank only.
func WriteStatsJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
