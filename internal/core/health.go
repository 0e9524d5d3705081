package core

import (
	"fmt"

	"proteus/internal/ckpt"
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
	"proteus/internal/transfer"
)

// stepSnapshot is an in-memory copy of everything a failed step mutates:
// the local forest, every solver field (full local vectors, ghosts
// included, so a restored state needs no re-communication) and the
// step/time bookkeeping. The buffers are reused across steps, so steady
// snapshotting allocates only while the mesh grows.
type stepSnapshot struct {
	elems       []sfc.Octant
	elemCn      []float64
	nodal       [][]float64 // one per nodalState field, in its order
	stepIndex   int
	time        float64
	remeshCount int
	epoch       uint64
}

// saveSnapshot records the pre-step state into snap, reusing its buffers.
func (s *Simulation) saveSnapshot(snap *stepSnapshot) {
	snap.elems = append(snap.elems[:0], s.Mesh.Elems...)
	snap.elemCn = append(snap.elemCn[:0], s.Solver.ElemCn...)
	fields := s.nodalState()
	for len(snap.nodal) < len(fields) {
		snap.nodal = append(snap.nodal, nil)
	}
	for i, f := range fields {
		snap.nodal[i] = append(snap.nodal[i][:0], f.Src...)
	}
	snap.stepIndex, snap.time = s.StepIndex, s.Time
	snap.remeshCount = s.RemeshCount
	snap.epoch = s.MeshEpoch
}

// rollback restores the pre-step state saved in snap. If the failed
// attempt remeshed (the epoch moved), the snapshot's mesh is rebuilt
// from its leaf set — mesh.New is deterministic in the leaves, so the
// rebuilt mesh reproduces the original layout exactly and the saved
// vectors (ghosts included) drop back in bitwise. Collective when the
// epoch moved, local otherwise; the divergence verdict that triggers a
// rollback is globally consistent, so every rank takes the same branch.
func (s *Simulation) rollback(snap *stepSnapshot) {
	if s.MeshEpoch != snap.epoch {
		m := mesh.New(s.Comm, s.Cfg.Dim, snap.elems)
		s.MeshEpoch++
		s.Solver.Rebind(m, s.MeshEpoch, nil)
		s.Mesh = m
	}
	for i, f := range s.nodalState() {
		copy(f.Src, snap.nodal[i])
	}
	copy(s.Solver.ElemCn, snap.elemCn)
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
// snapshot under base, in place: the solver keeps its worker pool, warm
// Krylov workspaces and fault injector; only the mesh binding and the
// field state change. Rank 0 resolves the generation (skipping corrupt
// ones) and broadcasts the choice, so every rank restores the same
// snapshot. Collective.
func (s *Simulation) restoreFromLatest(base string) error {
	var resolved, rerr string
	if s.Comm.Rank() == 0 {
		if _, rb, err := ckpt.ReadLatestGood(base); err != nil {
			rerr = err.Error()
		} else {
			resolved = rb
		}
	}
	if rerr = par.Bcast(s.Comm, 0, rerr); rerr != "" {
		return fmt.Errorf("core: checkpoint fallback: %s", rerr)
	}
	resolved = par.Bcast(s.Comm, 0, resolved)
	meta, err := ckpt.ReadMeta(resolved)
	if err != nil {
		return err
	}
	loc, err := ckpt.Read(s.Comm, resolved, meta)
	if err != nil {
		return err
	}
	local := octree.PartitionWeighted(s.Comm, loc.Elems, nil)
	m := mesh.New(s.Comm, s.Cfg.Dim, local)
	s.MeshEpoch++
	s.Solver.Rebind(m, s.MeshEpoch, nil)
	s.Mesh = m
	s.applySnapshot(loc, meta)
	return nil
}

// applySnapshot replays a loaded snapshot onto the simulation's current
// mesh through the key-addressed bitwise migration path and restores the
// step/time bookkeeping. The mesh must already hold the snapshot's
// global forest (possibly repartitioned). Collective.
func (s *Simulation) applySnapshot(loc *ckpt.Local, meta ckpt.Meta) {
	cn := transfer.MigrateElem(s.Comm, loc.Elems, loc.ElemCn, s.Mesh.Elems)
	copy(s.Solver.ElemCn, cn)

	dim := s.Cfg.Dim
	tot := 2 + dim + 1
	packed := make([]float64, len(loc.Keys)*tot)
	for i := range loc.Keys {
		off := i * tot
		copy(packed[off:off+2], loc.PhiMu[2*i:2*i+2])
		copy(packed[off+2:off+2+dim], loc.Vel[dim*i:dim*(i+1)])
		packed[off+2+dim] = loc.P[i]
	}
	transfer.MigrateKeyedNodal(s.Mesh, loc.Keys, packed, []transfer.Field{
		{Dst: s.Solver.PhiMu, Ndof: 2},
		{Dst: s.Solver.Vel, Ndof: dim},
		{Dst: s.Solver.P, Ndof: 1},
	})

	s.StepIndex = meta.Step
	s.Time = meta.Time
	s.RemeshCount = meta.RemeshCount
	s.T = meta.Timers
}
