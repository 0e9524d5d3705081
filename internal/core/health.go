package core

import (
	"fmt"

	"proteus/internal/ckpt"
	"proteus/internal/par"
)

// stepSnapshot is the in-memory copy of everything a failed step
// mutates: the saved state (the record a checkpoint writes) and the
// step/time bookkeeping. The buffers are reused across steps, so steady
// snapshotting allocates only while the mesh grows.
type stepSnapshot struct {
	loc         ckpt.Local
	stepIndex   int
	time        float64
	remeshCount int
}

// saveSnapshot records the pre-step state into snap, reusing its buffers.
func (s *Simulation) saveSnapshot(snap *stepSnapshot) {
	s.saveState(&snap.loc)
	snap.stepIndex, snap.time = s.StepIndex, s.Time
	snap.remeshCount = s.RemeshCount
}

// rollback restores the pre-step state saved in snap through restore: if
// the failed attempt remeshed, the snapshot's mesh is rebuilt from its
// leaves (mesh.New is deterministic in them, so the layout comes back
// exactly) and every value drops back in bitwise. The divergence verdict
// that triggers a rollback is globally consistent, so every rank rolls
// back together. Collective.
func (s *Simulation) rollback(snap *stepSnapshot) {
	s.restore(&snap.loc)
	s.StepIndex, s.Time = snap.stepIndex, snap.time
	s.RemeshCount = snap.remeshCount
}

// RecoveryEvent records one recovery action taken by RunUntil: a
// rolled-back retry at a reduced dt, or a fallback to the last intact
// on-disk checkpoint.
type RecoveryEvent struct {
	// Step is the absolute step index the failure happened at.
	Step int `json:"step"`
	// Stage and Kind name the failed solve stage and the failure
	// taxonomy entry (chns.DivergeKSP/DivergeNewton/DivergeNonFinite);
	// Kind is "ckpt-fallback" for a checkpoint fallback.
	Stage string `json:"stage,omitempty"`
	Kind  string `json:"kind"`
	// Dt is the time step the run continued with after this action.
	Dt float64 `json:"dt"`
	// Retry counts the retries spent on this step so far (0 for a
	// checkpoint fallback, which resets the budget).
	Retry int `json:"retry"`
	// Residual and Iterations describe the failed linear solve.
	Residual   float64 `json:"residual,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
}

// ErrRunFailed reports a run abandoned after the full recovery ladder —
// per-step retries and the checkpoint fallback budget — was exhausted.
// Recovery is the complete recovery history of the run, last entry the
// fatal one.
type ErrRunFailed struct {
	Step     int
	Err      error
	Recovery []RecoveryEvent
}

func (e *ErrRunFailed) Error() string {
	return fmt.Sprintf("core: run failed at step %d after %d recovery attempts: %v",
		e.Step, len(e.Recovery), e.Err)
}

func (e *ErrRunFailed) Unwrap() error { return e.Err }

// SetDt changes the time step for subsequent steps (both the config and
// the live solver read it per step, so the change takes effect at the
// next Step call).
func (s *Simulation) SetDt(dt float64) {
	s.Cfg.Opt.Dt = dt
	s.Solver.Opt.Dt = dt
}

// CheckpointGeneration writes a snapshot generation keyed to the current
// absolute step (base-g<step>) and prunes the oldest generations beyond
// retain (<= 0 keeps all). The rotation outcome is broadcast so the
// error result is collective-consistent. Collective.
func (s *Simulation) CheckpointGeneration(base string, retain int) error {
	if err := s.Checkpoint(ckpt.GenBase(base, s.StepIndex)); err != nil {
		return err
	}
	var rerr string
	if s.Comm.Rank() == 0 {
		if err := ckpt.Rotate(base, retain); err != nil {
			rerr = err.Error()
		}
	}
	if rerr = par.Bcast(s.Comm, 0, rerr); rerr != "" {
		return fmt.Errorf("core: rotate checkpoints under %s: %s", base, rerr)
	}
	return nil
}

// restoreFromLatest rewinds the live simulation to the newest intact
// snapshot under base, in place: the solver keeps its element scratch,
// warm Krylov workspaces and fault injector; only the mesh binding and the
// field state change. Rank 0 resolves the generation (skipping corrupt
// ones) and broadcasts the choice with its meta, so every rank restores
// the same snapshot. Collective.
func (s *Simulation) restoreFromLatest(base string) error {
	var latest struct {
		meta      ckpt.Meta
		base, err string
	}
	if s.Comm.Rank() == 0 {
		var err error
		if latest.meta, latest.base, err = ckpt.ReadLatestGood(base); err != nil {
			latest.err = err.Error()
		}
	}
	if latest = par.Bcast(s.Comm, 0, latest); latest.err != "" {
		return fmt.Errorf("core: checkpoint fallback: %s", latest.err)
	}
	loc, err := ckpt.Read(s.Comm, latest.base, latest.meta)
	if err != nil {
		return err
	}
	return s.restoreSnapshot(latest.base, latest.meta, loc)
}
