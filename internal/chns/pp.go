package chns

import (
	"time"

	"proteus/internal/fault"
	"proteus/internal/fem"
	"proteus/internal/la"
)

// ppScratch is one element-loop worker's private pressure-Poisson kernel
// scratch: pm/invRho/cg serve the matrix kernel, velC/comp the
// divergence RHS kernel. Hoisting velC and comp here (instead of a
// shared capture and a per-element allocation) is what lets the vector
// assembly shard race-free.
type ppScratch struct {
	pm     []float64
	invRho []float64
	cg     []float64
	velC   []float64
	comp   []float64
}

func newPPScratch(npe, ng, dim int) ppScratch {
	return ppScratch{
		pm:     make([]float64, npe*2),
		invRho: make([]float64, npe),
		cg:     make([]float64, ng),
		velC:   make([]float64, npe*dim),
		comp:   make([]float64, npe),
	}
}

// StepPP solves the variable-density pressure Poisson equation of the
// projection step (Table II: ibcgs + bjacobi):
//
//	∇·( (1/ρ) ∇ψ ) = (1/dt) ∇·v*
//
// for the pressure increment ψ, with pure Neumann boundaries; the
// nullspace is fixed by pinning the first global pressure unknown. The
// weak form is K_{1/ρ} ψ = -(1/dt) ∫ N ∇·v*.
//
// The returned slice is the solver's persistent ψ buffer: it stays valid
// until the next StepPP (which overwrites it in place) — copy it to
// retain a snapshot across steps.
func (s *Solver) StepPP() ([]float64, StageReport, error) {
	t0 := time.Now()
	m := s.M
	dim := m.Dim
	m.GhostRead(s.PhiMu, 2)
	m.GhostRead(s.Vel, dim)

	// Persistent operator: allocated once per mesh, Zero()+reassembled
	// through the warm plan on later steps.
	tMat := time.Now()
	if s.ppMat == nil {
		s.ppMat = s.asmS.NewMatrix(fem.LayoutZipped)
	} else {
		s.ppMat.Zero()
	}
	mat := s.ppMat
	s.asmS.AssembleMatrixZipped(mat, s.kPPMatZip)
	s.T.PP.Matrix += time.Since(tMat)

	tVec := time.Now()
	if s.ppRHS == nil {
		s.ppRHS = m.NewVec(1)
	}
	rhs := s.ppRHS
	s.asmS.AssembleVectorPlanned(rhs, s.kPPVec)
	s.T.PP.Vector += time.Since(tVec)

	// Pin the global first pressure unknown to fix the Neumann nullspace.
	if m.GlobalStart == 0 && m.NumOwned > 0 {
		mat.ZeroRow(0, 1)
		rhs[0] = 0
	}
	if s.ppPsi == nil {
		s.ppPsi = m.NewVec(1)
	}
	psi := s.ppPsi
	// Warm starts keep the previous increment (migrated across remeshes)
	// as the initial guess; the tolerance is relative to the RHS either
	// way, so the converged solution is the same.
	if !s.Opt.WarmStarts {
		for i := range psi {
			psi[i] = 0
		}
	}
	// Persistent KSP + PC: workspace reused (resized in place across a
	// Rebind); the PC choice (Opt.PCPP) re-keys in place while the mesh is
	// unchanged, with setup timed apart from the Krylov iteration.
	tPC := time.Now()
	switch {
	case s.ppPC == nil:
		s.ppPC = s.newPPPC(mat)
		s.T.PP.PCSetupCold += time.Since(tPC)
	case s.ppPCStale:
		s.ppPC = s.rebindStagePC(s.ppPC, mat, 1, s.ppGMGCoefs, s.newPPPC)
		s.ppPCStale = false
	default:
		refreshStagePC(s.ppPC, mat)
	}
	pcSetup := time.Since(tPC)
	s.T.PP.PCSetup += pcSetup
	if s.ppKSP == nil {
		s.ppKSP = &la.KSP{Type: la.IBiCGS, Rtol: s.Opt.LinTol, Atol: s.Opt.LinTol}
	}
	s.ppKSP.AddPCSetup(pcSetup)
	s.ppKSP.Op, s.ppKSP.PC, s.ppKSP.Red, s.ppKSP.Pool = mat, s.ppPC, m, s.pool
	tSolve := time.Now()
	res, err := s.ppKSP.Solve(rhs, psi)
	s.T.PP.Solve += time.Since(tSolve)
	s.T.PP.Record(res.Iterations)
	if s.postRemesh {
		s.T.RemeshStages.PostPPIters += res.Iterations
	}
	m.GhostRead(psi, 1)
	rep := StageReport{Stage: StagePP, Result: res}
	if err != nil {
		s.T.PP.Total += time.Since(t0)
		return psi, rep, err
	}
	if s.Fault.Fire(fault.KSPDiverge, string(StagePP)) {
		rep.Result.Converged = false
	}
	if !rep.Result.Converged {
		s.T.PP.Total += time.Since(t0)
		return psi, rep, &ErrDiverged{Stage: StagePP, Kind: DivergeKSP, Result: rep.Result}
	}
	s.pokeNaN(StagePP, psi)
	err = s.checkFinite(StagePP, s.scanBad(psi, m.NumOwned), rep.Result)
	s.T.PP.Total += time.Since(t0)
	return psi, rep, err
}

// initPPKernels builds the PP matrix (zipped) and RHS element kernels
// once, capturing only the Solver (see initCHKernels).
func (s *Solver) initPPKernels() {
	s.kPPMatZip = func(w, e int, h float64, blocks [][]float64) {
		r := s.asmS.Ref
		sc := &s.ppScr[w]
		s.M.GatherElem(e, s.PhiMu, 2, sc.pm)
		for a := 0; a < r.NPE; a++ {
			sc.invRho[a] = 1 / s.Par.Density(sc.pm[a*2])
		}
		r.CoefAtGauss(sc.invRho, sc.cg)
		r.StiffGemm(s.asmS.WorkN(w), h, 1, sc.cg, blocks[0])
	}
	s.kPPVec = func(w, e int, h float64, fe []float64) {
		m := s.M
		dim := m.Dim
		r := s.asmS.Ref
		npe := r.NPE
		sc := &s.ppScr[w]
		m.GatherElem(e, s.Vel, dim, sc.velC)
		vol := 1.0
		for d := 0; d < dim; d++ {
			vol *= h
		}
		for g := 0; g < r.NG; g++ {
			wg := r.W[g] * vol
			var div float64
			for d := 0; d < dim; d++ {
				for a := 0; a < npe; a++ {
					sc.comp[a] = sc.velC[a*dim+d]
				}
				div += r.GradAtGauss(g, d, h, sc.comp)
			}
			f := -div / s.Opt.Dt
			for a := 0; a < npe; a++ {
				fe[a] += wg * f * r.N[g*npe+a]
			}
		}
	}
}
