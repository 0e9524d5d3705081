package chns

import (
	"time"

	"proteus/internal/fault"
	"proteus/internal/fem"
	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/mg"
)

// StageTimes records per-stage wall-clock split into the Table I columns.
type StageTimes struct {
	Matrix, Vector, Solve, Total time.Duration
	// PCSetup is the preconditioner build/refresh share, kept out of Solve
	// so PC comparisons are not skewed by setup cost (ILU refactorization,
	// multigrid coefficient injection and coarse reassembly).
	PCSetup time.Duration
	// PCSetupCold is the cold-build sub-share of PCSetup: the from-scratch
	// PC constructions (first step of a mesh epoch). PCSetup - PCSetupCold
	// is the warm incremental-refresh share.
	PCSetupCold time.Duration
	// PCSetupLevels is the GMG coarse-level reassembly sub-share of
	// PCSetup (each level's element loop and row pins, cold builds
	// included, so it overlaps PCSetupCold); the rest of a GMG PCSetup is
	// coefficient injection and smoother factorization. Zero under
	// block-Jacobi.
	PCSetupLevels time.Duration
	Iterations    int
	// Solves counts the linear solves behind Iterations; ItMin/ItMax hold
	// the per-solve extremes, so min/mean/max iteration counts per stage
	// are reportable from accumulated timers alone.
	Solves int
	ItMin  int
	ItMax  int
	// Newton, NewtonMin and NewtonMax are the nonlinear iteration total and
	// per-step extremes over the same Solves (CH only: one solve per step).
	Newton, NewtonMin, NewtonMax int
	// Jacobians counts the Newton iterations that assembled and factored
	// their Jacobian and ChordSteps those that reused the previous one
	// (Newton = Jacobians + ChordSteps).
	Jacobians, ChordSteps int
	// BlockFills and BlockReuses count the CH element sweeps (residual or
	// Jacobian) that integrated K_m(φ) into the block store and those that
	// read it back: per Newton solve, fills = iterations + 1 + rejected
	// line-search trials and reuses = Jacobians.
	BlockFills, BlockReuses int
}

// widen grows the running range [*lo, *hi] to cover [olo, ohi]; first
// marks a range with nothing recorded in it yet.
func widen(first bool, lo, hi *int, olo, ohi int) {
	if first || olo < *lo {
		*lo = olo
	}
	if first || ohi > *hi {
		*hi = ohi
	}
}

// Record accumulates one linear solve's iteration count into the
// min/mean/max tracking.
func (t *StageTimes) Record(its int) {
	widen(t.Solves == 0, &t.ItMin, &t.ItMax, its, its)
	t.Iterations += its
	t.Solves++
}

// RecordNewton accumulates one Newton solve: its nonlinear iteration,
// Jacobian and chord-step counts and, as one Record, the linear iterations
// it aggregated.
func (t *StageTimes) RecordNewton(nw *la.Newton) {
	widen(t.Solves == 0, &t.NewtonMin, &t.NewtonMax, nw.Iterations, nw.Iterations)
	t.Newton += nw.Iterations
	t.Jacobians += nw.Jacobians
	t.ChordSteps += nw.ChordSteps
	t.Record(nw.LinearIterations)
}

// Timers accumulates stage timings across steps (Fig. 7 / Table I).
type Timers struct {
	CH, NS, PP, VU, Remesh StageTimes
	// RemeshStages splits Remesh.Total into the adaptation pipeline's
	// phases for the Fig. 7 / Table I "Remesh" accounting.
	RemeshStages RemeshTimes
	// MGLadder is the GMG mesh ladder's build (or refresh after a remesh),
	// shared by the NS and PP multigrid PCs: it runs inside the first GMG
	// stage of each mesh epoch, counted in that stage's Total but in
	// neither stage's PCSetup. Zero under block-Jacobi.
	MGLadder time.Duration
}

// Add accumulates o into t.
func (t *StageTimes) Add(o StageTimes) {
	t.Matrix += o.Matrix
	t.Vector += o.Vector
	t.Solve += o.Solve
	t.Total += o.Total
	t.PCSetup += o.PCSetup
	t.PCSetupCold += o.PCSetupCold
	t.PCSetupLevels += o.PCSetupLevels
	t.Iterations += o.Iterations
	t.Newton += o.Newton
	t.Jacobians += o.Jacobians
	t.ChordSteps += o.ChordSteps
	t.BlockFills += o.BlockFills
	t.BlockReuses += o.BlockReuses
	if o.Solves > 0 {
		widen(t.Solves == 0, &t.ItMin, &t.ItMax, o.ItMin, o.ItMax)
		widen(t.Solves == 0, &t.NewtonMin, &t.NewtonMax, o.NewtonMin, o.NewtonMax)
		t.Solves += o.Solves
	}
}

// RemeshTimes splits the remesh wall-clock into pipeline stages: feature
// detection and target marking, multi-level refinement, consensus
// coarsening, 2:1 balancing, SFC repartitioning, distributed mesh
// (re)build, and field transfer.
type RemeshTimes struct {
	Detect, Refine, Coarsen, Balance, Partition, Build, Transfer time.Duration
	// Migrate is the exact key-addressed field migration onto the
	// partition-shifted old-mesh view (a sub-share of Transfer, reported
	// separately so the migrate-then-patch path's cost is visible).
	Migrate time.Duration
	// Rounds counts every executed adaptation round, including rounds
	// that left the mesh unchanged (those still pay the detect-through-
	// partition stages); PartitionOnly counts the rounds whose global
	// forest was unchanged but whose partition moved, so fields were
	// migrated exactly (no interpolation).
	Rounds, PartitionOnly int
	// Incremental-remesh telemetry: how often the ripple balance and the
	// mesh patch ran versus their from-scratch fallbacks, how much ripple
	// work the seeded balance did, and the global dirty fraction the
	// incremental/full decision was gated on (DirtyOctants out of
	// TotalOctants, accumulated over every executed round).
	IncrBalance, FullBalance   int
	IncrBuild, FullBuild       int
	RippleRounds, RippleIters  int
	DirtyOctants, TotalOctants int64
	// MigrateBuild counts rounds built by the migrate-then-patch path
	// (splitters moved, dirty fraction under the threshold); the Full*
	// counters split FullBuild by the reason the round was built from
	// scratch, so the fast path's engagement rate is observable:
	// FullBuild = FullPartitionOnly + FullDirtyFrac.
	MigrateBuild      int
	FullPartitionOnly int // pure repartition rounds (exact migration path)
	FullDirtyFrac     int // global dirty fraction above the threshold
	// Remesh-aware multigrid refresh telemetry: coarse ladder levels reused
	// verbatim / patched in place across hierarchy refreshes, and transfer
	// target rows whose element reference was carried through the remap vs
	// re-located by point location.
	MGLevelsReused  int
	MGLevelsPatched int
	MGRowsPatched   int
	MGRowsResolved  int
	// Post-remesh solve telemetry: the first full step after each remesh,
	// with its per-stage Krylov iteration counts — what the warm-start path
	// is measured by.
	PostSteps   int
	PostCHIters int
	PostNSIters int
	PostPPIters int
	PostVUIters int
}

// Add accumulates o into t.
func (t *RemeshTimes) Add(o RemeshTimes) {
	t.Detect += o.Detect
	t.Refine += o.Refine
	t.Coarsen += o.Coarsen
	t.Balance += o.Balance
	t.Partition += o.Partition
	t.Build += o.Build
	t.Transfer += o.Transfer
	t.Migrate += o.Migrate
	t.Rounds += o.Rounds
	t.PartitionOnly += o.PartitionOnly
	t.IncrBalance += o.IncrBalance
	t.FullBalance += o.FullBalance
	t.IncrBuild += o.IncrBuild
	t.FullBuild += o.FullBuild
	t.RippleRounds += o.RippleRounds
	t.RippleIters += o.RippleIters
	t.DirtyOctants += o.DirtyOctants
	t.TotalOctants += o.TotalOctants
	t.MigrateBuild += o.MigrateBuild
	t.FullPartitionOnly += o.FullPartitionOnly
	t.FullDirtyFrac += o.FullDirtyFrac
	t.MGLevelsReused += o.MGLevelsReused
	t.MGLevelsPatched += o.MGLevelsPatched
	t.MGRowsPatched += o.MGRowsPatched
	t.MGRowsResolved += o.MGRowsResolved
	t.PostSteps += o.PostSteps
	t.PostCHIters += o.PostCHIters
	t.PostNSIters += o.PostNSIters
	t.PostPPIters += o.PostPPIters
	t.PostVUIters += o.PostVUIters
}

// Options configures the time integration, the solver tolerances and the
// per-stage preconditioners. The assembly is always the paper's production
// configuration (Table I stage 2): zipped GEMM element kernels and a
// velocity update split into one scalar mass solve per component.
type Options struct {
	// Theta is the time-integration weight (0.5 = Crank-Nicolson).
	Theta float64
	// Dt is the time step.
	Dt float64
	// LinTol is the linear solver tolerance (paper: 1e-8).
	LinTol float64
	// NonlinTol is the Newton tolerance (paper: 1e-10).
	NonlinTol float64
	// PCNS / PCPP select the NS / PP preconditioner (Table II column):
	// "bjacobi" (default, rank-block ILU(0)) or "gmg" — the octree
	// geometric multigrid V-cycle of internal/mg, whose mesh hierarchy is
	// shared between the stages and rebuilt on remesh.
	PCNS string
	PCPP string
	// WarmStarts seeds the stage Krylov solves whose natural initial guess
	// is the previous solution: ψ keeps its last value across steps (and
	// rides the remesh field migration), and the split velocity-update
	// solves start from the tentative component instead of zero. The
	// convergence target is unchanged — the linear tolerances are relative
	// to the RHS norm, not the initial residual — so warm starts can only
	// reduce iteration counts, most visibly on the first step after a
	// remesh where the migrated fields are already near the solution.
	WarmStarts bool
}

// Stage preconditioner names accepted by Options.PCNS/PCPP and the -pc
// CLI flag.
const (
	PCBJacobi = "bjacobi"
	PCGMG     = "gmg"
)

// ValidPC reports whether name selects a known stage preconditioner (the
// empty string is the bjacobi default).
func ValidPC(name string) bool {
	return name == "" || name == PCBJacobi || name == PCGMG
}

// DefaultOptions mirrors the paper's production configuration (stage 2).
func DefaultOptions(dt float64) Options {
	return Options{Theta: 0.5, Dt: dt, LinTol: 1e-8, NonlinTol: 1e-10}
}

// Solver advances the CHNS system on its current mesh. A remesh keeps the
// Solver and moves it to the new mesh with Rebind; core.Simulation
// transfers the fields across.
type Solver struct {
	M   *mesh.Mesh
	Par Params
	Opt Options

	// Fault is the optional deterministic fault injector (nil: inert).
	// It survives Rebind, so an injection schedule spans remeshes.
	Fault *fault.Injector

	// State: PhiMu is a 2-DOF vector (φ, μ per node); Vel is DIM-DOF;
	// P is the pressure.
	PhiMu []float64
	Vel   []float64
	P     []float64
	// ElemCn is the per-element Cahn number ("local Cahn"); initialized
	// to Par.Cn everywhere.
	ElemCn []float64

	T      Timers
	asmCH  *fem.Assembler
	asmVel *fem.Assembler // velocity vectors (the NS RHS); no matrix
	asmS   *fem.Assembler // scalar, the NS momentum operator included

	// The linear stages (stage.go): each owns its persistent operator,
	// preconditioner, KSP and RHS, so a steady-state time step performs no
	// sparsity construction and no solver-side allocation. CH's stage holds
	// the Newton Jacobian and its PC; the Newton driver and its problem sit
	// beside it. Rebind drops the mesh-keyed state and keeps the KSPs and
	// the Newton driver.
	ch, ns, pp, vu, chMass linStage

	chNewton la.Newton
	chProb   chProblem
	chOld    []float64
	chBlk    chBlockStore
	chRefill bool // test hook: every CH sweep integrates its blocks afresh
	ppPsi    []float64
	vuComp   []float64
	vuNewVel []float64

	// mgH is the geometric multigrid mesh hierarchy shared by every
	// GMG-preconditioned stage (built lazily on the first gmg stage of a
	// mesh epoch, dropped with the other mesh-keyed state on remesh).
	mgH *mg.Hierarchy
	// mgPrev holds the previous epoch's ladder across an incremental
	// rebind so ensureHierarchy can refresh it (reusing unchanged coarse
	// levels) instead of rebuilding from scratch. Cold rebinds clear it.
	mgPrev *mg.Hierarchy
	// mgInfo is the per-level outcome of the last hierarchy refresh: what
	// PCGMG.Rebind needs to keep or patch its levels across an incremental
	// remesh. Valid alongside mgH.
	mgInfo *mg.RefreshResult
	// mgWS is the hierarchy build/refresh scratch, reused across refreshes.
	mgWS mg.Workspace

	// mgDelta is the composed mesh delta of the last incremental Rebind
	// (nil after a cold one), what ensureHierarchy refreshes mgPrev
	// through.
	mgDelta *mesh.Delta

	// postRemesh marks the first full step after a rebind so the
	// RemeshTimes Post* iteration telemetry can single it out; cleared at
	// the end of Step/StepCHWithVelocity.
	postRemesh bool

	// Element-kernel scratch, so no stage kernel allocates per element.
	chRes chResScratch
	chScr chScratch
	nsScr nsScratch
	nsVec nsVecScratch
	ppScr ppScratch
	vuVec vuScratch

	// lumpOnes is the constant all-ones element vector of the lumped-mass
	// kernel (hoisted out of the per-element callback).
	lumpOnes []float64

	// finRed is the finite scan's reduction buffer, hoisted so the
	// post-stage scan of every step allocates nothing.
	finRed [1]float64

	// Per-step inputs of the element kernels (the k* methods), set
	// immediately before the assembly call that reads them.
	kCHx   []float64 // Newton iterate (CH residual/Jacobian kernels)
	kVUPsi []float64 // pressure increment (VU RHS kernel)
	kVUD   int       // velocity component (VU RHS kernel)

	meshEpoch uint64
}

// NewSolver allocates state on the mesh.
func NewSolver(m *mesh.Mesh, prm Params, opt Options) *Solver {
	s := &Solver{M: m, Par: prm, Opt: opt}
	s.allocState()
	s.asmCH = fem.NewAssembler(m, 2)
	s.asmVel = fem.NewAssembler(m, m.Dim)
	s.asmS = fem.NewAssembler(m, 1)
	s.initScratch()
	rs := &s.T.RemeshStages
	tol := opt.LinTol
	s.ch = linStage{s: s, name: StageCH, asm: s.asmCH, vasm: s.asmCH, matK: s.kCHJacZip, vecK: s.kCHRes, t: &s.T.CH}
	s.ns = linStage{s: s, name: StageNS, asm: s.asmS, vasm: s.asmVel, matK: s.kNSMatZip, vecK: s.kNSVec,
		pins: pinWalls, levelK: s.nsLevelKernel, t: &s.T.NS, post: &rs.PostNSIters,
		ksp: la.KSP{Type: la.BiCGS, Rtol: tol, Atol: tol}}
	s.pp = linStage{s: s, name: StagePP, asm: s.asmS, vasm: s.asmS, matK: s.kPPMatZip, vecK: s.kPPVec,
		pins: pinFirst, levelK: s.ppLevelKernel, t: &s.T.PP, post: &rs.PostPPIters,
		ksp: la.KSP{Type: la.IBiCGS, Rtol: tol, Atol: tol}}
	s.vu = linStage{s: s, name: StageVU, asm: s.asmS, vasm: s.asmS, matK: s.kVUMassZip, vecK: s.kVUComp,
		pins: pinWalls, mass: true, t: &s.T.VU, post: &rs.PostVUIters,
		ksp: la.KSP{Type: la.CG, Rtol: tol, Atol: tol}}
	// The CH mass solve runs before the first step; its timers go nowhere.
	// ‖b‖ ≈ 1e-3, so Atol, not Rtol, stops CG: μ₀ is ~1e-5 relative.
	s.chMass = linStage{s: s, asm: s.asmS, vasm: s.asmS, mass: true, t: new(StageTimes),
		ksp: la.KSP{Type: la.CG, Rtol: 1e-10, Atol: 1e-8}}
	return s
}

// allocState allocates the state vectors on s.M: PhiMu, Vel, P and (under
// warm starts) ψ zeroed, ElemCn at the uniform Cahn number.
func (s *Solver) allocState() {
	m := s.M
	s.PhiMu = m.NewVec(2)
	s.Vel = m.NewVec(m.Dim)
	s.P = m.NewVec(1)
	s.ppPsi = nil
	if s.Opt.WarmStarts {
		s.ppPsi = m.NewVec(1)
	}
	s.ElemCn = make([]float64, m.NumElems())
	for i := range s.ElemCn {
		s.ElemCn[i] = s.Par.Cn
	}
}

// Close does nothing: the solver owns no goroutines.
//
// Deprecated: kept because benchmark/run.go and benchmark/probes.go call
// it.
func (s *Solver) Close() {}

// initScratch allocates the element kernels' scratch.
func (s *Solver) initScratch() {
	npe := s.asmCH.Ref.NPE
	ng := s.asmCH.Ref.NG
	dim := s.M.Dim
	s.chRes = newCHResScratch(npe, ng, dim)
	s.chScr = newCHScratch(npe, ng, dim)
	s.nsScr = newNSScratch(npe, ng, dim)
	s.nsVec = newNSVecScratch(npe, dim)
	s.ppScr = newPPScratch(npe, ng, dim)
	s.vuVec = newVUScratch(npe, dim)
	s.lumpOnes = make([]float64, npe)
	for i := range s.lumpOnes {
		s.lumpOnes[i] = 1
	}
}

// MeshEpoch returns the solver's current mesh epoch.
func (s *Solver) MeshEpoch() uint64 { return s.meshEpoch }

// Rebind moves the solver to mesh m at generation epoch in place — the
// remesh, rollback and checkpoint-fallback swap — preserving everything
// that survives a mesh change: the assemblers' reference element and
// element scratch, each stage's KSP (whose Krylov workspace resizes in
// place on the next Solve) and the Newton driver. Each stage's
// operator and RHS, and the per-step vectors, are dropped and rebuilt
// lazily on the next step. State vectors (PhiMu, Vel, P, ElemCn, and ψ
// under warm starts) are reallocated at the new sizes and left for the
// caller to fill by transfer/migration; ElemCn starts at the uniform Cahn
// number.
//
// d is the mesh delta of an incremental build (mesh.Patch,
// mesh.PatchMigrated) and names what survived: each stage assembler's
// frozen sparsity and assembly plans are patched instead of rebuilt; the
// multigrid ladder is kept aside so the next GMG-preconditioned stage
// refreshes it, reusing unchanged coarse levels; and a GMG stage PC is
// kept and flagged so its first post-remesh setup rebinds its levels onto
// that ladder. Every other stage PC is dropped and built on the new
// operator by its next setup. A nil d means nothing is known to have
// survived: plans, preconditioners and ladder all go. Every repaired
// object is bitwise identical to its cold rebuild, so the two yield
// identical runs. Collective when d is non-nil.
func (s *Solver) Rebind(m *mesh.Mesh, epoch uint64, d *mesh.Delta) {
	// A second incremental rebind before a kept GMG PC consumed the first
	// has no composed delta at this level: the PC is dropped. The
	// hierarchy refresh still works off the kept previous ladder, just
	// without the fine-level transfer patch.
	stacked := false
	for _, st := range s.stages() {
		stacked = stacked || st.stale
	}
	s.M = m
	s.meshEpoch = epoch
	s.allocState()
	s.asmCH.Rebind(m, epoch, d)
	s.asmVel.Rebind(m, epoch, d)
	s.asmS.Rebind(m, epoch, d)
	s.chOld = nil
	s.chBlk.drop()
	s.vuComp, s.vuNewVel = nil, nil
	s.mgDelta = d
	if stacked {
		s.mgDelta = nil
	}
	for _, st := range s.stages() {
		st.mat, st.rhs = nil, nil
		if _, gmg := st.pc.(*mg.PCGMG); !gmg || s.mgDelta == nil {
			st.pc = nil
		}
		st.stale = st.pc != nil
	}
	// Stale coarse operators never survive a cold rebind; an incremental
	// one keeps the last built ladder for ensureHierarchy to refresh.
	if d == nil {
		s.mgPrev = nil
	} else if s.mgH != nil {
		s.mgPrev = s.mgH
	}
	s.mgH, s.mgInfo = nil, nil
	s.postRemesh = true
}

// PsiState returns the pressure increment ψ that warm starts carry from
// one PP solve to the next (nil with Opt.WarmStarts off, where ψ is
// per-step scratch). It is solver state like PhiMu/Vel/P: allocated on the
// current mesh (NumLocal scalars), zeroed by Rebind, moved across a remesh
// and restored on rollback by the caller.
func (s *Solver) PsiState() []float64 {
	if !s.Opt.WarmStarts {
		return nil
	}
	return s.ppPsi
}

// SetPhi initializes φ from a point function and sets μ consistently to 0.
func (s *Solver) SetPhi(f func(x, y, z float64) float64) {
	for i := 0; i < s.M.NumLocal; i++ {
		x, y, z := s.M.NodeCoord(i)
		s.PhiMu[i*2] = f(x, y, z)
		s.PhiMu[i*2+1] = 0
	}
}

// SetVelocity initializes the velocity from a point function.
func (s *Solver) SetVelocity(f func(x, y, z float64) (vx, vy, vz float64)) {
	d := s.M.Dim
	for i := 0; i < s.M.NumLocal; i++ {
		x, y, z := s.M.NodeCoord(i)
		vx, vy, vz := f(x, y, z)
		s.Vel[i*d] = vx
		s.Vel[i*d+1] = vy
		if d == 3 {
			s.Vel[i*d+2] = vz
		}
	}
}

// PhiMass returns the global integral of φ (a conserved quantity of the
// CH equation with no-flux boundaries), evaluated with the lumped mass.
func (s *Solver) PhiMass() float64 {
	lump := s.lumpedMass()
	var sum float64
	for i := 0; i < s.M.NumOwned; i++ {
		sum += lump[i] * s.PhiMu[2*i]
	}
	return s.M.GlobalSum(sum)
}

// lumpedMass returns the nodal lumped mass vector (owned+ghost).
func (s *Solver) lumpedMass() []float64 {
	v := s.M.NewVec(1)
	s.asmS.AssembleVectorPlanned(v, func(w, e int, h float64, fe []float64) {
		s.asmS.Ref.LoadVector(h, s.lumpOnes, 1, fe)
	})
	return v
}

// Step advances one full time block: CH, NS, PP, VU (Sec. II-A). The
// report carries every stage's linear/Newton outcome; on failure the
// error is a *ErrDiverged naming the stage and failure kind, the
// remaining stages are skipped, and the state fields hold the partial
// (possibly corrupt) step — the caller owns rollback (core.RunUntil
// snapshots before each step and restores on error). The verdict is
// globally consistent: every rank returns the same error or none.
func (s *Solver) Step() (StepReport, error) {
	var rep StepReport
	var err error
	if rep.CH, err = s.StepCH(nil); err != nil {
		return rep, err
	}
	if rep.NS, err = s.StepNS(); err != nil {
		return rep, err
	}
	psi, ppRep, err := s.StepPP()
	rep.PP = ppRep
	if err != nil {
		return rep, err
	}
	rep.VU, err = s.StepVU(psi)
	return s.endStep(rep, err)
}

// endStep closes a time block: the first one to succeed after a rebind is
// counted for the RemeshTimes Post* telemetry.
func (s *Solver) endStep(rep StepReport, err error) (StepReport, error) {
	if err == nil && s.postRemesh {
		s.T.RemeshStages.PostSteps++
		s.postRemesh = false
	}
	return rep, err
}

// StepCHWithVelocity advances only the Cahn–Hilliard block using a
// prescribed analytic velocity (the swirling-flow validation mode of
// Fig. 5). The velocity field is sampled at nodes each call. Only the
// CH entry of the report is populated.
func (s *Solver) StepCHWithVelocity(f func(x, y, z float64) (vx, vy, vz float64)) (StepReport, error) {
	var rep StepReport
	var err error
	s.SetVelocity(f)
	rep.CH, err = s.StepCH(nil)
	return s.endStep(rep, err)
}
