// Package core is the public face of the framework: it orchestrates the
// full adaptive CHNS pipeline of Saurabh et al. (IPDPS 2023) — solve a
// time block (CH, NS, PP, VU), identify under-resolved features with the
// erosion/dilation detector, remesh by arbitrarily many levels in one
// pass (refine + consensus coarsening + 2:1 balance + SFC repartition),
// and transfer all fields to the new grid — while accounting wall-clock
// per stage for the Fig. 7 and Table I experiments.
package core

import (
	"fmt"
	"math"
	"time"

	"proteus/internal/chns"
	"proteus/internal/detect"
	"proteus/internal/fault"
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
	"proteus/internal/transfer"
)

// Config selects the physics, the refinement policy and the local-Cahn
// detection parameters of a simulation.
type Config struct {
	Dim    int
	Params chns.Params
	Opt    chns.Options

	// Refinement policy (octree levels).
	BulkLevel      int // background resolution away from the interface
	InterfaceLevel int // resolution of the |φ| < Delta band
	FineLevel      int // resolution of detected features (local Cahn)

	// LocalCahn enables the detection pipeline; FineCn is the reduced
	// Cahn number Cn2 applied in detected regions (default Cn/2.5).
	LocalCahn bool
	FineCn    float64

	// Detection knobs (Algorithm 1); zero values get sensible defaults.
	Delta                   float64 // threshold δ (default -0.8)
	ErodeSteps, DilateSteps int
	CleanSteps, PadSteps    int

	// RemeshEvery triggers adaptation every n steps (default 1).
	RemeshEvery int

	// PrescribedVel, when non-nil, runs only the CH block with this
	// analytic velocity (the Fig. 5 swirling-flow validation mode).
	PrescribedVel func(x, y, z, t float64) (vx, vy, vz float64)
}

func (c *Config) defaults() {
	if c.Delta == 0 {
		c.Delta = -0.8
	}
	if c.ErodeSteps == 0 {
		c.ErodeSteps = 2
	}
	if c.DilateSteps == 0 {
		c.DilateSteps = c.ErodeSteps + 2
	}
	if c.RemeshEvery == 0 {
		c.RemeshEvery = 1
	}
	if c.FineCn == 0 {
		c.FineCn = c.Params.Cn / 2.5
	}
	if c.FineLevel == 0 {
		c.FineLevel = c.InterfaceLevel
	}
}

// Simulation couples a mesh, a CHNS solver and the adaptivity loop.
type Simulation struct {
	Comm   *par.Comm
	Cfg    Config
	Mesh   *mesh.Mesh
	Solver *chns.Solver

	// ScenarioName and PresetName identify the registered case this
	// simulation was built from (set by the scenario layer); checkpoints
	// stamp them into their meta file so a restart can rebuild the
	// non-serializable Config through the registry.
	ScenarioName string
	PresetName   string

	StepIndex int
	Time      float64

	// DtNominal is the configured (un-backed-off) time step; the retry
	// loop halves the live dt under it on failure and relaxes back toward
	// it after a streak of clean steps.
	DtNominal float64

	// Fault is this rank's deterministic fault injector (nil: inert).
	// Step forwards the step index to it and hands it to the solver and
	// the checkpoint writer, so every injection point sees one clock.
	Fault *fault.Injector

	// Recovery bookkeeping maintained by RunUntil and reported through
	// Stats: total rolled-back retries, checkpoint fallbacks, and the
	// per-event history.
	Retries       int
	CkptFallbacks int
	Recovery      []RecoveryEvent

	// MeshEpoch counts mesh generations: it starts at 0 and increments on
	// every adaptation round that actually changed the mesh. The solver
	// and its assemblers key their persistent sparsity and assembly plans
	// to this counter, so plan invalidation happens exactly at remesh and
	// never on the steady time-stepping path.
	MeshEpoch uint64

	// Accumulated timers; the live solver's stage timers (which persist
	// across remeshes since the solver is rebound, not replaced) are added
	// on top by Timers().
	T chns.Timers
	// RemeshCount counts adaptation rounds that changed the mesh.
	RemeshCount int

	// tws is the reusable batched-transfer workspace, so steady remeshing
	// does not reallocate the query maps and scratch every round.
	tws transfer.Workspace

	// policy overrides how Adapt picks its build route. The zero value is
	// production (decide from the measured dirty fraction); only tests set
	// anything else.
	policy remeshPolicy
}

// remeshFullFrac is the global dirty-octant fraction above which a remesh
// round abandons the incremental route (ripple balance, mesh patch or
// migrate-then-patch, plan repair) and rebuilds from scratch: incremental
// work is proportional to the changed region and stops paying once most of
// the forest changed.
const remeshFullFrac = 0.25

// remeshPolicy is the test-only override of that decision. Every route
// yields bitwise-identical meshes and solves, so the from-scratch one
// doubles as the oracle the incremental ones are tested against.
type remeshPolicy uint8

const (
	remeshMeasured   remeshPolicy = iota // dirty fraction against remeshFullFrac
	remeshAlwaysFull                     // every round over the threshold: the oracle
	remeshNeverFull                      // no round over the threshold: the gate wide open
)

// New builds the initial mesh from the phase-field initializer: the
// |φ0| < 0.95 band is refined to InterfaceLevel, the rest to BulkLevel.
// Collective.
func New(c *par.Comm, cfg Config, phi0 func(x, y, z float64) float64) *Simulation {
	cfg.defaults()
	tr := octree.Build(cfg.Dim, func(o sfc.Octant) bool {
		if int(o.Level) < cfg.BulkLevel {
			return true
		}
		if int(o.Level) >= cfg.InterfaceLevel {
			return false
		}
		return octantCrossesInterface(o, cfg.Dim, phi0)
	}, cfg.InterfaceLevel, nil).Balance21(nil)
	local := partitionSlice(tr.Leaves, c.Rank(), c.Size())
	local = octree.PartitionWeighted(c, local, nil)
	s := NewOnLeaves(c, cfg, local)
	s.Solver.SetPhi(phi0)
	if err := s.Solver.InitMuFromPhi(); err != nil {
		// The init mass solve is hardwired to CG; an error here is a
		// programming bug, not a run hazard.
		panic(err)
	}
	return s
}

// NewOnLeaves builds a simulation over an explicit, already partitioned
// local leaf set, leaving every state field zero — the checkpoint-restore
// entry point (Restore fills the fields by keyed migration afterwards).
// Collective.
func NewOnLeaves(c *par.Comm, cfg Config, local []sfc.Octant) *Simulation {
	cfg.defaults()
	m := mesh.New(c, cfg.Dim, local)
	s := &Simulation{Comm: c, Cfg: cfg, Mesh: m, DtNominal: cfg.Opt.Dt}
	s.Solver = chns.NewSolver(m, cfg.Params, cfg.Opt)
	return s
}

// octantCrossesInterface samples φ0 at the corners and centre of o.
func octantCrossesInterface(o sfc.Octant, dim int, phi0 func(x, y, z float64) float64) bool {
	s := float64(o.Side()) / float64(sfc.MaxCoord)
	ox := float64(o.X) / float64(sfc.MaxCoord)
	oy := float64(o.Y) / float64(sfc.MaxCoord)
	oz := float64(o.Z) / float64(sfc.MaxCoord)
	hasPos, hasNeg := false, false
	probe := func(x, y, z float64) {
		v := phi0(x, y, z)
		if v > -0.95 {
			hasPos = true
		}
		if v < 0.95 {
			hasNeg = true
		}
	}
	n := 1 << dim
	for cx := 0; cx <= n; cx++ {
		fx := float64(cx&1) * s
		fy := float64((cx>>1)&1) * s
		fz := float64((cx>>2)&1) * s
		if cx == n {
			fx, fy, fz = s/2, s/2, s/2
		}
		if dim == 2 {
			fz = 0
		}
		probe(ox+fx, oy+fy, oz+fz)
	}
	return hasPos && hasNeg
}

func partitionSlice(leaves []sfc.Octant, rank, p int) []sfc.Octant {
	n := len(leaves)
	lo, hi := rank*n/p, (rank+1)*n/p
	out := make([]sfc.Octant, hi-lo)
	copy(out, leaves[lo:hi])
	return out
}

// Step advances one time block, remeshing first when due. A divergence
// error (*chns.ErrDiverged) leaves the step index and time untouched —
// but the mesh and fields possibly mid-step — so the caller owns
// rollback (RunUntil does it from an in-memory snapshot). The verdict is
// globally consistent across ranks. Collective.
func (s *Simulation) Step() error {
	s.Fault.SetStep(s.StepIndex)
	s.Solver.Fault = s.Fault
	if s.StepIndex%s.Cfg.RemeshEvery == 0 && s.StepIndex > 0 {
		s.Adapt()
	}
	var err error
	if s.Cfg.PrescribedVel != nil {
		t := s.Time
		_, err = s.Solver.StepCHWithVelocity(func(x, y, z float64) (float64, float64, float64) {
			return s.Cfg.PrescribedVel(x, y, z, t)
		})
	} else {
		_, err = s.Solver.Step()
	}
	if err != nil {
		return err
	}
	s.StepIndex++
	s.Time += s.Cfg.Opt.Dt
	return nil
}

// Run advances n steps, stopping at the first failed one (no retry —
// RunUntil owns recovery).
func (s *Simulation) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Adapt runs one remesh round in four stages: detect per-element level
// targets, derive the next forest (refine, consensus coarsen, 2:1 balance,
// SFC repartition), build its mesh, and move the solver and every field
// onto it. The solver is rebound in place, keeping its element scratch,
// Krylov workspaces and Newton driver. Wall-clock is split into the
// RemeshStages sub-timers. Collective.
func (s *Simulation) Adapt() {
	t0 := time.Now()
	targets, cnMark := s.detectTargets()
	next := s.nextForest(targets, cnMark)
	if meshChanged(s.Comm, s.Mesh.Elems, next.leaves) {
		// Local lists changed; if the global forest did not, the round is
		// a pure repartition and fields migrate exactly instead of being
		// re-created through interpolation.
		next.partitionOnly = forestUnchanged(s.Comm, s.Mesh.Elems, next.leaves)
		s.moveState(s.buildMesh(next), next, cnMark)
		s.RemeshCount++
	}
	s.T.Remesh.Total += time.Since(t0)
}

// detectTargets runs feature identification on φ and returns the desired
// octree level per current element, plus the local-Cahn mark (1 where the
// detector asks for the reduced Cahn number).
func (s *Simulation) detectTargets() (targets []int, cnMark []float64) {
	t0 := time.Now()
	cfg, m := &s.Cfg, s.Mesh
	phi := m.NewVec(1)
	for i := 0; i < m.NumLocal; i++ {
		phi[i] = s.Solver.PhiMu[2*i]
	}
	// Refresh the ghost slots explicitly: the last solve stage is not
	// guaranteed to have left PhiMu's ghosts current, and both the
	// detector and nearInterface read neighbour values through them.
	m.GhostRead(phi, 1)

	var reduce []bool
	if cfg.LocalCahn {
		res := detect.Identify(m, phi, detect.Config{
			Delta:      cfg.Delta,
			ErodeSteps: cfg.ErodeSteps, DilateSteps: cfg.DilateSteps,
			CleanSteps: cfg.CleanSteps, PadSteps: cfg.PadSteps,
			BaseLevel: cfg.InterfaceLevel,
		})
		reduce = res.ReduceCahn
	} else {
		reduce = make([]bool, m.NumElems())
	}

	bw := detect.Threshold(m, phi, cfg.Delta)
	buf := make([]float64, m.CornersPerElem())
	targets = make([]int, m.NumElems())
	cnMark = make([]float64, m.NumElems())
	for e := 0; e < m.NumElems(); e++ {
		switch {
		case reduce[e]:
			targets[e] = cfg.FineLevel
			cnMark[e] = 1
		case detect.HasInterface(m, bw, e, buf) || nearInterface(m, phi, e, buf):
			targets[e] = cfg.InterfaceLevel
		default:
			targets[e] = cfg.BulkLevel
		}
	}
	s.T.RemeshStages.Detect += time.Since(t0)
	return targets, cnMark
}

// forestPlan is what nextForest hands the build and move stages.
type forestPlan struct {
	// refined is the locally refined, not yet coarsened leaf list and
	// refinedCn the local-Cahn mark each of its leaves inherited: the
	// source of the cell-centred transfer.
	refined   []sfc.Octant
	refinedCn []float64
	// leaves is this rank's range of the balanced, repartitioned forest.
	leaves []sfc.Octant
	// subThreshold is the round's one collective incremental-or-full
	// decision (see nextForest); partitionOnly, set by Adapt, marks a
	// round whose global forest is unchanged.
	subThreshold, partitionOnly bool
}

// nextForest turns the per-element targets into the next forest:
// multi-level refinement (local, order-preserving, targets inherited by
// descendants), multi-level consensus coarsening across ranks, 2:1 balance
// and weighted SFC repartition. Collective.
func (s *Simulation) nextForest(targets []int, cnMark []float64) forestPlan {
	dim, m, rt := s.Cfg.Dim, s.Mesh, &s.T.RemeshStages
	var next forestPlan

	t0 := time.Now()
	var refinedTarget []int
	var emit func(o sfc.Octant, target int, cn float64)
	emit = func(o sfc.Octant, target int, cn float64) {
		// A leaf coarser than its target splits down to it; one finer keeps
		// its octant here — merging siblings is a cross-rank consensus
		// decision, made by ParCoarsen from the recorded target.
		if int(o.Level) >= target {
			next.refined = append(next.refined, o)
			next.refinedCn = append(next.refinedCn, cn)
			refinedTarget = append(refinedTarget, target)
			return
		}
		for ch := 0; ch < o.NumChildren(); ch++ {
			emit(o.Child(ch), target, cn)
		}
	}
	for e, o := range m.Elems {
		emit(o, targets[e], cnMark[e])
	}
	rt.Refine += time.Since(t0)

	t0 = time.Now()
	coarse := octree.ParCoarsen(s.Comm, dim, next.refined, refinedTarget)
	rt.Coarsen += time.Since(t0)

	// The dirty fraction is measured once per round, here — dirty
	// pre-balance octants over the coarsened total, on global counts so
	// every rank decides alike — and that one decision gates both the
	// ripple balance and the incremental build: it is a property of the
	// adaptation, and a post-partition measure would double-count unchanged
	// survivors that merely moved ranks.
	t0 = time.Now()
	dirty := octree.AddedLeaves(m.Elems, coarse)
	cnt := par.AllreduceSlice(s.Comm, []int64{int64(len(dirty)), int64(len(coarse))},
		func(a, b int64) int64 { return a + b })
	rt.DirtyOctants += cnt[0]
	rt.TotalOctants += cnt[1]
	next.subThreshold = cnt[1] > 0 && float64(cnt[0]) <= remeshFullFrac*float64(cnt[1])
	switch s.policy {
	case remeshAlwaysFull:
		next.subThreshold = false
	case remeshNeverFull:
		next.subThreshold = cnt[1] > 0
	}
	if next.subThreshold {
		// The 2:1 balance runs as a ripple from the dirty octants —
		// bitwise identical to the from-scratch sweep, with work
		// proportional to the change. Conservative dirty sets are safe: a
		// seed that did not actually change imposes only demands the old
		// balance already satisfies.
		var st octree.RippleStats
		next.leaves, st = octree.Balance21Ripple(s.Comm, dim, coarse, dirty, nil)
		rt.IncrBalance++
		rt.RippleRounds += st.Rounds
		rt.RippleIters += st.Iters
	} else {
		next.leaves = octree.Balance21Distributed(s.Comm, dim, coarse, nil)
		rt.FullBalance++
	}
	rt.Balance += time.Since(t0)

	t0 = time.Now()
	next.leaves = octree.PartitionWeighted(s.Comm, next.leaves, nil)
	rt.Partition += time.Since(t0)
	// Every executed pipeline counts toward Rounds — including rounds the
	// mesh turns out unchanged — so the per-round stage averages divide
	// detect/refine/coarsen/balance/partition time by the number of times
	// those stages actually ran.
	rt.Rounds++
	return next
}

// builtMesh is the build stage's result: the next mesh and, from the
// incremental routes, the delta that lets the solver repair instead of
// rebuild (nil: built from scratch). view is PatchMigrated's exact
// redistribution of the old mesh to the new owners (nil on the other
// routes).
type builtMesh struct {
	mesh, view *mesh.Mesh
	delta      *mesh.Delta
}

// buildMesh builds the distributed mesh of the next forest: patched in
// place when the partition held still, migrate-then-patched when the
// splitters moved (Patch detects that itself, collectively, and declines),
// and from scratch when the round is a pure repartition or its dirty
// fraction is over the threshold. All three produce bitwise-identical
// meshes. Collective.
func (s *Simulation) buildMesh(next forestPlan) builtMesh {
	t0 := time.Now()
	old, rt := s.Mesh, &s.T.RemeshStages
	var b builtMesh
	if next.subThreshold && !next.partitionOnly {
		dirty := octree.AddedLeaves(old.Elems, next.leaves)
		b.mesh, b.delta = mesh.Patch(s.Comm, s.Cfg.Dim, next.leaves, old, dirty)
		if b.mesh != nil {
			rt.IncrBuild++
		} else {
			b.mesh, b.view, b.delta = mesh.PatchMigrated(old, next.leaves)
			rt.MigrateBuild++
		}
	} else {
		b.mesh = mesh.New(s.Comm, s.Cfg.Dim, next.leaves)
		// The reasons sum to FullBuild.
		rt.FullBuild++
		if next.partitionOnly {
			rt.FullPartitionOnly++
		} else {
			rt.FullDirtyFrac++
		}
	}
	rt.Build += time.Since(t0)
	return b
}

// nodalState lists the solver's nodal fields on its current mesh as
// transfer sources — the one place (φμ, u, p, ψ) is spelled. The remesh
// moves this list and the step snapshot saves and restores it. ψ is on it
// when warm starts are on, so the first post-remesh PP solve seeds from the
// transferred previous increment.
func (s *Simulation) nodalState() []transfer.Field {
	sol := s.Solver
	fields := []transfer.Field{
		{Src: sol.PhiMu, Ndof: 2},
		{Src: sol.Vel, Ndof: s.Cfg.Dim},
		{Src: sol.P, Ndof: 1},
	}
	if psi := sol.PsiState(); psi != nil {
		fields = append(fields, transfer.Field{Src: psi, Ndof: 1})
	}
	return fields
}

// moveState rebinds the solver to the built mesh (bumping the mesh epoch,
// which every cached sparsity and assembly plan is keyed to) and moves
// every field onto it: exactly — bitwise key-addressed migration, no
// interpolation — on a partition-only round, and through one batched
// point-location transfer, a single NBX query/reply round carrying all
// nodal fields, otherwise. Collective.
func (s *Simulation) moveState(b builtMesh, next forestPlan, cnMark []float64) {
	t0 := time.Now()
	cfg, sol, rt := &s.Cfg, s.Solver, &s.T.RemeshStages
	old, from := s.Mesh, s.Mesh
	fields := s.nodalState()
	s.MeshEpoch++
	sol.Rebind(b.mesh, s.MeshEpoch, b.delta)
	onNew := s.nodalState()
	if len(onNew) != len(fields) {
		panic(fmt.Sprintf("core: %d nodal fields before the rebind, %d after", len(fields), len(onNew)))
	}
	for i := range fields {
		fields[i].Dst = onNew[i].Src
	}
	if b.view != nil {
		// The splitters moved: first move every nodal field bitwise onto
		// the migrated old-mesh view (exact, key-addressed — the same
		// values the old mesh holds, re-owned by the new partition), then
		// transfer from the view. Because the view is already aligned with
		// the new partition, almost all point-location queries resolve
		// locally instead of crossing ranks. Bitwise identical to
		// transferring straight from the old mesh.
		tMigrate := time.Now()
		onView := make([]transfer.Field, len(fields))
		for i, f := range fields {
			onView[i] = transfer.Field{Src: f.Src, Dst: b.view.NewVec(f.Ndof), Ndof: f.Ndof}
			fields[i].Src = onView[i].Dst
		}
		transfer.MigrateNodal(old, b.view, onView)
		from = b.view
		rt.Migrate += time.Since(tMigrate)
	}
	var newCnMark []float64
	if next.partitionOnly {
		transfer.MigrateNodal(from, b.mesh, fields)
		newCnMark = transfer.MigrateElem(s.Comm, old.Elems, cnMark, b.mesh.Elems)
		rt.PartitionOnly++
	} else {
		transfer.Batch(from, b.mesh, fields, &s.tws)
		newCnMark = transfer.CellCentered(s.Comm, cfg.Dim, next.refined, next.refinedCn, b.mesh.Elems)
	}
	for e := range sol.ElemCn {
		if cfg.LocalCahn && newCnMark[e] > 0.25 {
			sol.ElemCn[e] = cfg.FineCn
		} else {
			sol.ElemCn[e] = cfg.Params.Cn
		}
	}
	s.Mesh = b.mesh
	rt.Transfer += time.Since(t0)
}

// nearInterface guards against losing the interface between detection
// rounds: an element whose φ values are inside (-0.98, 0.98) anywhere is
// treated as interfacial.
func nearInterface(m *mesh.Mesh, phi []float64, e int, buf []float64) bool {
	m.GatherElem(e, phi, 1, buf)
	for _, v := range buf {
		if math.Abs(v) < 0.98 {
			return true
		}
	}
	return false
}

func meshChanged(c *par.Comm, oldE, newE []sfc.Octant) bool {
	same := len(oldE) == len(newE)
	if same {
		for i := range oldE {
			if !oldE[i].EqualKey(newE[i]) {
				same = false
				break
			}
		}
	}
	return par.Allreduce(c, !same, func(a, b bool) bool { return a || b })
}

// forestUnchanged reports whether old and new describe the same global
// leaf sequence — a pure repartition. The comparison is a
// partition-independent 128-bit fingerprint per forest: each leaf hashes
// together with its global index and the per-rank partial sums combine
// by addition, so moving SFC ranges between ranks leaves the value
// untouched. Both forests share one Exscan and one Allreduce (two
// collectives total). The exact migration paths re-verify the forests
// key by key, so a fingerprint collision fails loudly downstream instead
// of corrupting fields. Collective.
func forestUnchanged(c *par.Comm, oldE, newE []sfc.Octant) bool {
	off := par.Exscan(c, [2]int64{int64(len(oldE)), int64(len(newE))}, [2]int64{},
		func(a, b [2]int64) [2]int64 { return [2]int64{a[0] + b[0], a[1] + b[1]} })
	// sums: [oldCount, newCount, oldH0, oldH1, newH0, newH1].
	sums := make([]uint64, 6)
	sums[0], sums[1] = uint64(len(oldE)), uint64(len(newE))
	forestHash(oldE, off[0], sums[2:4])
	forestHash(newE, off[1], sums[4:6])
	sums = par.AllreduceSlice(c, sums, func(a, b uint64) uint64 { return a + b })
	return sums[0] == sums[1] && sums[2] == sums[4] && sums[3] == sums[5]
}

// forestHash accumulates the position-dependent leaf fingerprint of a
// local SFC range starting at global index off into h[0:2].
func forestHash(leaves []sfc.Octant, off int64, h []uint64) {
	for i, o := range leaves {
		k := mix64(uint64(o.X)<<32 | uint64(o.Y))
		k = mix64(k ^ (uint64(o.Z)<<8 | uint64(o.Level)))
		k = mix64(k ^ uint64(off+int64(i)))
		h[0] += k
		h[1] += mix64(k ^ 0x9e3779b97f4a7c15)
	}
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Timers returns the accumulated stage timers including the live solver.
func (s *Simulation) Timers() chns.Timers {
	t := s.T
	t.CH.Add(s.Solver.T.CH)
	t.NS.Add(s.Solver.T.NS)
	t.PP.Add(s.Solver.T.PP)
	t.VU.Add(s.Solver.T.VU)
	// The solver's remesh counters (MG refresh carry-over, post-remesh
	// iterations) accumulate on its side of the seam; the
	// pipeline sub-timers accumulate on ours. The two sets are disjoint.
	t.RemeshStages.Add(s.Solver.T.RemeshStages)
	t.MGLadder += s.Solver.T.MGLadder
	return t
}

// GlobalElems returns the global element count.
func (s *Simulation) GlobalElems() int64 {
	return int64(s.Mesh.GlobalSum(float64(s.Mesh.NumElems())))
}

// LevelHistogram returns the global fraction of elements per level
// (Fig. 9).
func (s *Simulation) LevelHistogram() []float64 {
	local := make([]float64, sfc.MaxLevel+1)
	for _, l := range s.Mesh.ElemLevel {
		local[l]++
	}
	glob := par.AllreduceSlice(s.Comm, local, func(a, b float64) float64 { return a + b })
	var tot float64
	for _, v := range glob {
		tot += v
	}
	max := 0
	for l, v := range glob {
		if v > 0 {
			max = l
		}
	}
	out := make([]float64, max+1)
	for l := range out {
		out[l] = glob[l] / tot
	}
	return out
}

// CountDrops returns the number of connected components of the immersed
// phase (elements whose centre value of φ is below cut), the Fig. 5
// breakup metric. Components are counted on rank 0 from gathered element
// data; intended for validation-scale meshes.
func (s *Simulation) CountDrops(cut float64) int {
	m := s.Mesh
	phiC := make([]float64, m.CornersPerElem())
	local := make([]dropCell, m.NumElems())
	phi := m.NewVec(1)
	for i := 0; i < m.NumLocal; i++ {
		phi[i] = s.Solver.PhiMu[2*i]
	}
	m.GhostRead(phi, 1)
	for e := 0; e < m.NumElems(); e++ {
		m.GatherElem(e, phi, 1, phiC)
		var sum float64
		for _, v := range phiC {
			sum += v
		}
		local[e] = dropCell{m.Elems[e], sum/float64(len(phiC)) < cut}
	}
	all := par.Allgatherv(s.Comm, local)
	count := 0
	if s.Comm.Rank() == 0 {
		count = countComponents(s.Cfg.Dim, all)
	}
	return par.Bcast(s.Comm, 0, count)
}

// dropCell is one element's octant and immersion flag for drop counting.
type dropCell struct {
	Oct sfc.Octant
	In  bool
}

// countComponents unions face/corner-adjacent immersed cells.
func countComponents(dim int, cells []dropCell) int {
	tr := &octree.Tree{Dim: dim}
	octs := make([]sfc.Octant, len(cells))
	in := make([]bool, len(cells))
	for i, cl := range cells {
		octs[i] = cl.Oct
		in[i] = cl.In
	}
	tr.Leaves = octs
	parent := make([]int, len(cells))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	var nbuf [26]sfc.Octant
	for i, o := range octs {
		if !in[i] {
			continue
		}
		for _, n := range o.AllNeighbors(nbuf[:0]) {
			lo, hi := tr.OverlapRange(n)
			for j := lo; j < hi; j++ {
				if in[j] {
					union(i, j)
				}
			}
		}
	}
	seen := map[int]bool{}
	for i := range octs {
		if in[i] {
			seen[find(i)] = true
		}
	}
	return len(seen)
}

// Describe prints a one-line mesh summary on rank 0.
func (s *Simulation) Describe() string {
	h := s.LevelHistogram()
	min, max := -1, 0
	for l, v := range h {
		if v > 0 {
			if min < 0 {
				min = l
			}
			max = l
		}
	}
	return fmt.Sprintf("step %d t=%.4f elems=%d levels=[%d,%d] dofs=%d",
		s.StepIndex, s.Time, s.GlobalElems(), min, max, s.Mesh.NumGlobal)
}
