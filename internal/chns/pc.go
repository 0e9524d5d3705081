package chns

import (
	"proteus/internal/fem"
	"proteus/internal/la"
	"proteus/internal/mg"
)

// This file wires the per-stage preconditioner choice (Options.PCNS /
// Options.PCPP, Table II column "pc"): the pointwise/ILU(0) PCs from la,
// and the octree geometric multigrid V-cycle from internal/mg. The MG
// mesh hierarchy is built once per mesh epoch and shared by both stages;
// each stage owns its own PCGMG (its own coarse operators and smoothers)
// over that shared ladder.

// ensureHierarchy returns the solver's MG mesh ladder, building it from
// the current mesh on first use in an epoch. After an incremental rebind
// the previous ladder is refreshed instead — unchanged coarse levels are
// reused, the rest rebuilt — with a result bitwise identical to a from-
// scratch build. Collective.
func (s *Solver) ensureHierarchy() *mg.Hierarchy {
	if s.mgH == nil {
		if s.mgPrev != nil {
			h, res := mg.RefreshHierarchy(s.M, s.mgPrev, s.pcDelta, &s.mgWS, mg.HierarchyOptions{})
			s.mgH, s.mgInfo = h, res
			s.MGLevelsReused += res.LevelsReused
			rs := &s.T.RemeshStages
			rs.MGLevelsReused += res.LevelsReused
			rs.MGLevelsPatched += res.LevelsPatched
			rs.MGRowsPatched += res.RowsPatched
			rs.MGRowsResolved += res.RowsResolved
			s.mgPrev = nil
		} else {
			s.mgH = mg.NewHierarchy(s.M, mg.HierarchyOptions{})
			s.mgInfo = nil
		}
	}
	return s.mgH
}

// newNSPC builds the NS-stage preconditioner for the assembled momentum
// operator, ready to apply (GMG arrives refreshed). The matrix is one
// scalar operator on every velocity component, A ⊗ I_dim, so the default
// block-Jacobi PC factors A alone and sweeps all components at once.
func (s *Solver) newNSPC(mat *la.BSRMat) la.PC {
	switch s.Opt.PCNS {
	case PCJacobi:
		return la.NewPCJacobi(mat)
	case PCGMG:
		dim := s.M.Dim
		g := mg.NewPCGMG(s.ensureHierarchy(), s.pool, mg.Config{
			Ndof: dim,
			Coefs: []mg.Coefficient{
				{Vec: s.PhiMu, Ndof: 2},
				{Vec: s.Vel, Ndof: dim},
			},
			Assemble:          s.assembleNSLevel,
			BoundaryDirichlet: true,
		})
		g.SetFineOperator(mat)
		g.Refresh()
		return g
	default:
		if s.nsPCFull {
			return la.NewPCBJacobiILU0(mat)
		}
		return la.NewPCBJacobiILU0Kron(mat)
	}
}

// newPPPC builds the PP-stage preconditioner for the assembled
// variable-density Poisson operator.
func (s *Solver) newPPPC(mat *la.BSRMat) la.PC {
	switch s.Opt.PCPP {
	case PCJacobi:
		return la.NewPCJacobi(mat)
	case PCGMG:
		g := mg.NewPCGMG(s.ensureHierarchy(), s.pool, mg.Config{
			Ndof:     1,
			Coefs:    []mg.Coefficient{{Vec: s.PhiMu, Ndof: 2}},
			Assemble: s.assemblePPLevel,
		})
		g.SetFineOperator(mat)
		g.Refresh()
		return g
	default:
		return la.NewPCBJacobiILU0(mat)
	}
}

// rebindStagePC re-keys a stage PC kept across an incremental rebind onto
// the stage's rebuilt operator, carrying everything the mesh delta proves
// survived: ILU(0) keeps the factorization index of pattern-preserved
// rows (refactoring values only), Jacobi re-extracts the new diagonal in
// place, and a multigrid PC rebinds its level assemblers and smoothers
// onto the refreshed hierarchy before the usual coefficient/operator
// refresh. nd is the stage's dofs per node (the row-patch expansion);
// gmgCoefs builds the stage's coefficient bindings on the new mesh.
// Returns the PC to install (an unrecognized type is rebuilt cold).
func (s *Solver) rebindStagePC(pc la.PC, mat *la.BSRMat, nd int,
	gmgCoefs func() []mg.Coefficient, rebuild func(*la.BSRMat) la.PC) la.PC {
	rs := &s.T.RemeshStages
	switch p := pc.(type) {
	case *la.PCBJacobiILU0:
		// The NS PC factors the scalar operator: its patch is per node and
		// its counts are scaled back to scalar rows.
		k := p.Comps()
		kept, rebuilt := p.RebindPatched(mat, s.rowPatch(nd/k))
		rs.PCRowsKept += kept * k
		rs.PCRowsRebuilt += rebuilt * k
		return p
	case *la.PCJacobi:
		p.Rebind(mat)
		return p
	case *mg.PCGMG:
		h := s.ensureHierarchy()
		p.Rebind(h, s.mgInfo, gmgCoefs(), s.meshEpoch, s.rowPatch(nd))
		p.SetFineOperator(mat)
		p.Refresh()
		kept, rebuilt := p.TakeRebindStats()
		rs.PCRowsKept += kept
		rs.PCRowsRebuilt += rebuilt
		return p
	default:
		return rebuild(mat)
	}
}

// nsGMGCoefs / ppGMGCoefs bind the stage multigrid coefficient fields to
// the solver's (reallocated) state vectors on the current mesh.
func (s *Solver) nsGMGCoefs() []mg.Coefficient {
	return []mg.Coefficient{
		{Vec: s.PhiMu, Ndof: 2},
		{Vec: s.Vel, Ndof: s.M.Dim},
	}
}

func (s *Solver) ppGMGCoefs() []mg.Coefficient {
	return []mg.Coefficient{{Vec: s.PhiMu, Ndof: 2}}
}

// refreshStagePC re-keys an existing stage PC to the reassembled operator
// values: multigrid re-injects coefficients and reassembles its coarse
// ladder, the others refactor in place.
func refreshStagePC(pc la.PC, mat *la.BSRMat) {
	if g, ok := pc.(*mg.PCGMG); ok {
		g.SetFineOperator(mat)
		g.Refresh()
		return
	}
	if r, ok := pc.(la.Refresher); ok {
		r.Refresh()
	}
}

// nsLevelScratch is one coarse level's NS assembly state: the kernel
// scratch plus the element kernel itself, built once on the level's first
// assembly so warm multigrid refreshes create no closures.
type nsLevelScratch struct {
	sc   nsScratch
	kern func(w, e int, h float64, ke []float64)
}

// assembleNSLevel assembles the coarse-level momentum operator from the
// injected φ/μ and velocity fields — the fine NS scalar operator, built
// with the explicit-loop element operators and replicated per component
// into the level's AIJ matrix — with the no-slip rows pinned to identity
// on each level. Runs serially per rank: the kernel shares one scratch
// (nsLevelScratch.sc) across the element loop, which is safe because the
// level assembler is pinned to one worker.
func (s *Solver) assembleNSLevel(lvl *mg.Level) {
	m := lvl.M
	dim := m.Dim
	ls, ok := lvl.Scratch.(*nsLevelScratch)
	if !ok {
		r := lvl.Asm.Ref
		npe := r.NPE
		ls = &nsLevelScratch{sc: newNSScratch(npe, r.NG, dim)}
		sc := &ls.sc
		phiMu, vel := lvl.Coef[0], lvl.Coef[1]
		ls.kern = func(w, e int, h float64, ke []float64) {
			th, dt := s.Opt.Theta, s.Opt.Dt
			m.GatherElem(e, phiMu, 2, sc.pm)
			m.GatherElem(e, vel, dim, sc.velC)
			for a := 0; a < npe; a++ {
				sc.phiC[a] = sc.pm[a*2]
				sc.rho[a] = s.Par.Density(sc.phiC[a])
				sc.eta[a] = s.Par.Viscosity(sc.phiC[a])
			}
			for i := range sc.scalarOp {
				sc.scalarOp[i] = 0
			}
			r.WeightedMass(h, sc.rho, 1/dt, sc.scalarOp)
			r.WeightedStiffness(h, sc.eta, th/s.Par.Re, sc.scalarOp)
			for a := 0; a < npe; a++ {
				for d := 0; d < dim; d++ {
					sc.rvel[a*dim+d] = sc.rho[a] * sc.velC[a*dim+d]
				}
			}
			r.Convection(h, sc.rvel, th, sc.scalarOp)
			n := npe * dim
			for a := 0; a < npe; a++ {
				for b := 0; b < npe; b++ {
					v := sc.scalarOp[a*npe+b]
					for d := 0; d < dim; d++ {
						ke[(a*dim+d)*n+b*dim+d] = v
					}
				}
			}
		}
		lvl.Scratch = ls
	}
	lvl.Asm.AssembleMatrix(lvl.Mat, fem.LayoutAIJ, ls.kern)
	for i := 0; i < m.NumOwned; i++ {
		if m.OnBoundary(i) {
			for d := 0; d < dim; d++ {
				lvl.Mat.ZeroRow(i*dim+d, 1)
			}
		}
	}
}

// ppLevelScratch is one coarse level's PP assembly state (see
// nsLevelScratch).
type ppLevelScratch struct {
	sc   ppScratch
	kern func(w, e int, h float64, ke []float64)
}

// assemblePPLevel assembles the coarse-level variable-density Poisson
// operator K_{1/ρ} from the injected φ, pinning each level's first global
// unknown exactly as the fine stage pins the pressure nullspace.
func (s *Solver) assemblePPLevel(lvl *mg.Level) {
	m := lvl.M
	ls, ok := lvl.Scratch.(*ppLevelScratch)
	if !ok {
		r := lvl.Asm.Ref
		npe := r.NPE
		ls = &ppLevelScratch{sc: newPPScratch(npe, r.NG, m.Dim)}
		sc := &ls.sc
		phiMu := lvl.Coef[0]
		ls.kern = func(w, e int, h float64, ke []float64) {
			m.GatherElem(e, phiMu, 2, sc.pm)
			for a := 0; a < npe; a++ {
				sc.invRho[a] = 1 / s.Par.Density(sc.pm[a*2])
			}
			r.WeightedStiffness(h, sc.invRho, 1, ke)
		}
		lvl.Scratch = ls
	}
	lvl.Asm.AssembleMatrix(lvl.Mat, fem.LayoutAIJ, ls.kern)
	if m.GlobalStart == 0 && m.NumOwned > 0 {
		lvl.Mat.ZeroRow(0, 1)
	}
}
