package chns

import (
	"time"

	"proteus/internal/fault"
	"proteus/internal/fem"
	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/mg"
)

// linStage is one linear solve of the time block: the paper's PETSc KSP
// object (Table II: a Krylov type, a preconditioner and a tolerance) and
// the assembly that feeds it. NS, PP, VU and the CH mass solve are linStage
// values configured in NewSolver; CH's Newton Jacobian uses the matrix and
// PC parts of its own. One pipeline runs every stage, in this order:
// assemble the operator, then the RHS (assemble, assembleRHS), pin rows
// (pinRows), set up the PC (setupPC), run the KSP and record its iterations
// (krylov), then the fault hook and divergence error (diverged), the NaN
// poke and the finite scan; each part books its time to the stage's
// StageTimes. The operator, PC, KSP and RHS persist across steps; Rebind
// drops the mesh-keyed ones. Every stage's KSP runs in the Solver's one
// Krylov workspace.
type linStage struct {
	s    *Solver
	name Stage
	// asm assembles the operator and vasm the vectors it acts on (RHS and
	// solution, vasm.Ndof components per node). They differ only for NS,
	// whose scalar momentum operator A (asm = asmS) applies to the
	// interleaved velocity as A ⊗ I_dim.
	asm, vasm *fem.Assembler
	// Element kernels, method values built once in NewSolver so a warm step
	// creates no closure: the zipped matrix kernel and the RHS kernel (for
	// CH, its Newton residual).
	matK fem.ZippedKernel
	vecK fem.WorkerVecKernel
	pins pinKind
	// mass marks an operator assembled once per mesh and solved with CG +
	// Jacobi (VU's and CH's mass matrices): never reassembled or refreshed
	// on the same mesh.
	mass bool
	// levelK builds the stage's element kernel on a coarse multigrid level
	// (NS and PP, the stages with a GMG option; see assembleLevel).
	levelK func(*mg.Level) fem.NodeMajorKernel

	mat   *la.BSRMat
	pc    la.PC
	stale bool // pc is a GMG PC kept across an incremental Rebind: rebind it
	ksp   la.KSP
	rhs   []float64
	t     *StageTimes
	post  *int // RemeshStages.Post*Iters (nil: not tracked)
}

// pinKind names a stage's pinned nodes: its operator keeps their rows as
// identity rows and its RHS zeroes them on every component.
type pinKind uint8

const (
	pinNone  pinKind = iota
	pinWalls         // every owned boundary node (no-slip walls)
	pinFirst         // the first global node (the pressure nullspace)
)

// pinRows pins kind's nodes of operator mat on mesh m — every scalar row
// of the node, one for a scalar operator however many components it
// applies to — or, when mat is nil, of its RHS with nd components per
// node.
func pinRows(kind pinKind, m *mesh.Mesh, nd int, mat *la.BSRMat, rhs []float64) {
	pin := func(i int) {
		if mat != nil {
			for d := 0; d < mat.Bs; d++ {
				mat.ZeroRow(i*mat.Bs+d, 1)
			}
		} else {
			for d := 0; d < nd; d++ {
				rhs[i*nd+d] = 0
			}
		}
	}
	switch kind {
	case pinWalls:
		for i := 0; i < m.NumOwned; i++ {
			if m.OnBoundary(i) {
				pin(i)
			}
		}
	case pinFirst:
		if m.GlobalStart == 0 && m.NumOwned > 0 {
			pin(0)
		}
	}
}

// stages lists every linear stage that keeps mesh-keyed state, for what
// Rebind does to all of them (the chMass template keeps none).
func (s *Solver) stages() [4]*linStage {
	return [4]*linStage{&s.ch, &s.ns, &s.pp, &s.vu}
}

// solve runs the whole pipeline once. t0 is when the stage began, its
// ghost exchanges included; x is the initial guess on entry and the
// ghost-consistent solution on return.
func (st *linStage) solve(t0 time.Time, x []float64) (StageReport, error) {
	s := st.s
	st.assemble()
	st.assembleRHS()
	st.ksp.AddPCSetup(st.setupPC())
	rep := StageReport{Stage: st.name}
	var err error
	rep.Result, err = st.krylov(st.rhs, x)
	s.M.GhostRead(x, st.vasm.Ndof)
	if err == nil {
		err = st.diverged(&rep.Result)
	}
	if err == nil {
		s.pokeNaN(st.name, x)
		err = s.checkFinite(st.name, s.scanBad(x, st.vasm.Ndof*s.M.NumOwned), rep.Result)
	}
	st.t.Total += time.Since(t0)
	return rep, err
}

// assemble allocates (once per mesh) or zeroes the stage operator,
// assembles it through the warm plan and pins its rows. An operator on
// fewer dofs per node than the stage's vectors applies to them as A ⊗ I
// (la.BSRMat.SetComps). A mass operator is assembled once per mesh.
func (st *linStage) assemble() {
	if st.mass && st.mat != nil {
		return
	}
	t0 := time.Now()
	if st.mat == nil {
		st.mat = st.asm.NewMatrix(fem.LayoutZipped)
		st.mat.SetComps(st.vasm.Ndof / st.asm.Ndof)
	} else {
		st.mat.Zero()
	}
	st.asm.AssembleMatrixZipped(st.mat, st.matK)
	pinRows(st.pins, st.s.M, 0, st.mat, nil)
	st.t.Matrix += time.Since(t0)
}

// assembleRHS assembles the stage right-hand side (allocated once per
// mesh) and zeroes its pinned rows.
func (st *linStage) assembleRHS() {
	t0 := time.Now()
	if st.rhs == nil {
		st.rhs = st.s.M.NewVec(st.vasm.Ndof)
	}
	st.vasm.AssembleVectorPlanned(st.rhs, st.vecK)
	pinRows(st.pins, st.s.M, st.vasm.Ndof, nil, st.rhs)
	st.t.Vector += time.Since(t0)
}

// setupPC makes the stage PC current for the operator just assembled and
// returns the time it took: built cold on first use in a mesh epoch,
// rebound onto the refreshed ladder after an incremental Rebind (a GMG PC
// keeps its unchanged levels and patches its level assemblers), or
// refreshed in place from the new values. A mass stage's Jacobi PC needs
// nothing after its build: the operator does not change on a mesh. A GMG
// stage makes the shared mesh ladder current first, outside its PCSetup.
func (st *linStage) setupPC() time.Duration {
	s := st.s
	if s.gmgStage(st) {
		s.ensureHierarchy()
	}
	t0 := time.Now()
	switch p := st.pc.(type) {
	case nil:
		st.pc = s.newPC(st)
		st.t.PCSetupCold += time.Since(t0)
	case *la.PCBJacobiILU0:
		p.Refresh()
	case *mg.PCGMG:
		if st.stale {
			p.Rebind(s.ensureHierarchy(), s.mgInfo, s.gmgCoefs(st), s.meshEpoch)
		}
		p.SetFineOperator(st.mat)
		p.Refresh()
	}
	st.stale = false
	d := time.Since(t0)
	st.t.PCSetup += d
	return d
}

// newPC builds the stage PC for its assembled operator, ready to apply:
// the one place each stage's preconditioner is chosen (Table II column
// "pc", with Options.PCNS/PCPP choosing NS's and PP's).
func (s *Solver) newPC(st *linStage) la.PC {
	switch {
	case st.mass:
		return la.NewPCJacobi(st.mat)
	case s.gmgStage(st):
		g := mg.NewPCGMG(s.ensureHierarchy(), nil, mg.Config{
			Ndof:              st.vasm.Ndof,
			Coefs:             s.gmgCoefs(st),
			Assemble:          st.assembleLevel,
			BoundaryDirichlet: st.pins == pinWalls,
		})
		g.SetFineOperator(st.mat)
		g.Refresh()
		return g
	}
	return la.NewPCBJacobiILU0(st.mat)
}

// gmgStage reports whether the stage is preconditioned by GMG
// (Options.PCNS/PCPP).
func (s *Solver) gmgStage(st *linStage) bool {
	return st.name == StageNS && s.Opt.PCNS == PCGMG || st.name == StagePP && s.Opt.PCPP == PCGMG
}

// gmgCoefs binds a stage's multigrid coefficient fields to the solver's
// state vectors on the current mesh: φ/μ, and for NS the velocity.
func (s *Solver) gmgCoefs(st *linStage) []mg.Coefficient {
	c := []mg.Coefficient{{Vec: s.PhiMu, Ndof: 2}}
	if st.name == StageNS {
		c = append(c, mg.Coefficient{Vec: s.Vel, Ndof: s.M.Dim})
	}
	return c
}

// krylov runs the stage KSP on its operator and PC for the RHS b from the
// initial guess x, and records the iterations (and, on the first step
// after a remesh, the Post*Iters telemetry). The KSP holds the operator,
// PC and mesh only while it solves, so a Rebind leaves none of them
// reachable through it.
func (st *linStage) krylov(b, x []float64) (la.Result, error) {
	s := st.s
	k := &st.ksp
	k.Op, k.PC, k.Red = st.mat, st.pc, s.M
	t0 := time.Now()
	res, err := k.Solve(b, x)
	k.Op, k.PC, k.Red = nil, nil, nil
	st.t.Solve += time.Since(t0)
	st.t.Record(res.Iterations)
	if s.postRemesh && st.post != nil {
		*st.post += res.Iterations
	}
	return res, err
}

// diverged is the stage verdict on its converged-or-not solve: an injected
// KSP divergence marks res unconverged, and an unconverged res becomes the
// typed divergence error.
func (st *linStage) diverged(res *la.Result) error {
	if st.s.Fault.Fire(fault.KSPDiverge, string(st.name)) {
		res.Converged = false
	}
	if !res.Converged {
		return &ErrDiverged{Stage: st.name, Kind: DivergeKSP, Result: *res}
	}
	return nil
}
