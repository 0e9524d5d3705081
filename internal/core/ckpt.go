package core

import (
	"fmt"
	"slices"

	"proteus/internal/ckpt"
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/transfer"
)

// Checkpoint writes a restartable snapshot of the simulation under path
// base: the saved state of saveState (ψ included under warm starts) and
// the step/time/timer bookkeeping. The snapshot is rank-count portable —
// see Restore. Collective.
func (s *Simulation) Checkpoint(base string) error {
	meta := ckpt.Meta{
		Scenario:    s.ScenarioName,
		Preset:      s.PresetName,
		Dim:         s.Cfg.Dim,
		Step:        s.StepIndex,
		Time:        s.Time,
		LocalCahn:   s.Cfg.LocalCahn,
		NodalDofs:   s.nodalDofs(),
		RemeshCount: s.RemeshCount,
		GlobalElems: s.GlobalElems(),
		GlobalDofs:  s.Mesh.NumGlobal,
		Timers:      s.Timers(),
	}
	var loc ckpt.Local
	s.saveState(&loc)
	return ckpt.Write(s.Comm, base, meta, &loc, s.Fault)
}

// Restore rebuilds a simulation from a snapshot written by Checkpoint,
// at the current communicator's rank count — which need not match the
// writer's. Each rank reads a contiguous block of the writer files and
// the state goes back through restore, so the restored global state is
// bitwise identical to the checkpointed one at any rank count. cfg must
// describe the case the snapshot was written from (drivers rebuild it
// from meta.Scenario/Preset via the registry) with the same nodal field
// list: a snapshot written under warm starts carries ψ and restores only
// under warm starts, and the reverse is rejected too. Collective.
func Restore(c *par.Comm, cfg Config, base string) (*Simulation, error) {
	meta, err := ckpt.ReadMeta(base)
	if err != nil {
		return nil, err
	}
	if meta.Dim != cfg.Dim {
		return nil, fmt.Errorf("core: snapshot %s is %dD but the config is %dD", base, meta.Dim, cfg.Dim)
	}
	loc, err := ckpt.Read(c, base, meta)
	if err != nil {
		return nil, err
	}
	s := NewOnLeaves(c, cfg, octree.PartitionWeighted(c, loc.Elems, nil))
	s.ScenarioName, s.PresetName = meta.Scenario, meta.Preset
	if err := s.restoreSnapshot(base, meta, loc); err != nil {
		return nil, err
	}
	// The new solver's counters start at zero, so the writer's totals are
	// this run's history. A checkpoint fallback keeps its own counters:
	// its live solver still holds the work the snapshot's totals count.
	s.T = meta.Timers
	return s, nil
}

// nodalDofs is the field list a snapshot records: each nodalState
// field's dofs per node.
func (s *Simulation) nodalDofs() []int {
	var dofs []int
	for _, f := range s.nodalState() {
		dofs = append(dofs, f.Ndof)
	}
	return dofs
}

// saveState copies the state a step mutates into loc, reusing its
// buffers: the local leaves, the elemental Cahn numbers, the owned node
// keys and the owned segment of every nodalState field, in its order.
func (s *Simulation) saveState(loc *ckpt.Local) {
	m := s.Mesh
	loc.Elems = append(loc.Elems[:0], m.Elems...)
	loc.ElemCn = append(loc.ElemCn[:0], s.Solver.ElemCn...)
	loc.Keys = append(loc.Keys[:0], m.Keys[:m.NumOwned]...)
	fields := s.nodalState()
	loc.Nodal = slices.Grow(loc.Nodal[:0], len(fields))[:len(fields)]
	for i, f := range fields {
		loc.Nodal[i] = append(loc.Nodal[i][:0], f.Src[:m.NumOwned*f.Ndof]...)
	}
}

// restore puts a saved state back — the one route of a rolled-back step,
// a checkpoint fallback and a restart. The leaves are partitioned by the
// SFC rule every remesh uses, idempotent on a partition it produced, and
// only if that moved them is the mesh rebuilt and the solver rebound
// cold. Every value then moves to its owner bitwise, ghosts refreshed.
// The step bookkeeping is the caller's. Collective.
func (s *Simulation) restore(loc *ckpt.Local) {
	local := octree.PartitionWeighted(s.Comm, loc.Elems, nil)
	if meshChanged(s.Comm, s.Mesh.Elems, local) {
		m := mesh.New(s.Comm, s.Cfg.Dim, local)
		s.MeshEpoch++
		s.Solver.Rebind(m, s.MeshEpoch, nil)
		s.Mesh = m
	}
	copy(s.Solver.ElemCn, transfer.MigrateElem(s.Comm, loc.Elems, loc.ElemCn, s.Mesh.Elems))
	fields := s.nodalState()
	for i := range fields {
		fields[i].Src, fields[i].Dst = loc.Nodal[i], fields[i].Src
	}
	transfer.MigrateKeyedNodal(s.Mesh, loc.Keys, fields)
}

// restoreSnapshot restores a snapshot read from base with its step, time
// and remesh count, or rejects it on every rank (all read one meta) if its
// nodal field list is not this run's. Collective.
func (s *Simulation) restoreSnapshot(base string, meta ckpt.Meta, loc *ckpt.Local) error {
	if want := s.nodalDofs(); !slices.Equal(meta.NodalDofs, want) {
		return fmt.Errorf("core: snapshot %s holds nodal fields of %v dofs per node but this run's list is %v"+
			" (ψ is on it under warm starts: repeat the writing run's -warm-starts)", base, meta.NodalDofs, want)
	}
	s.restore(loc)
	s.StepIndex, s.Time = meta.Step, meta.Time
	s.RemeshCount = meta.RemeshCount
	return nil
}
