package chns

import (
	"time"

	"proteus/internal/fem"
	"proteus/internal/mg"
)

// This file holds what the NS and PP stages need for the octree geometric
// multigrid V-cycle of internal/mg (Options.PCNS/PCPP = "gmg"): the MG
// mesh hierarchy, built once per mesh epoch and shared by both stages, and
// each stage's coarse-level operator assembly. Each stage owns its own
// PCGMG (its own coarse operators and smoothers) over the shared ladder.

// ensureHierarchy returns the solver's MG mesh ladder, building it from
// the current mesh on first use in an epoch. After an incremental rebind
// the previous ladder is refreshed instead — unchanged coarse levels are
// reused, the rest rebuilt — with a result bitwise identical to a from-
// scratch build. The build is booked to Timers.MGLadder. Collective.
func (s *Solver) ensureHierarchy() *mg.Hierarchy {
	if s.mgH == nil {
		t0 := time.Now()
		defer func() { s.T.MGLadder += time.Since(t0) }()
		if s.mgPrev != nil {
			h, res := mg.RefreshHierarchy(s.M, s.mgPrev, s.mgDelta, &s.mgWS, mg.HierarchyOptions{})
			s.mgH, s.mgInfo = h, res
			rs := &s.T.RemeshStages
			rs.MGLevelsReused += res.LevelsReused
			rs.MGLevelsPatched += res.LevelsPatched
			rs.MGRowsPatched += res.RowsPatched
			rs.MGRowsResolved += res.RowsResolved
			s.mgPrev, s.mgDelta = nil, nil
		} else {
			s.mgH = mg.NewHierarchy(s.M, mg.HierarchyOptions{})
			s.mgInfo = nil
		}
	}
	return s.mgH
}

// assembleLevel is the stage's mg.Config.Assemble: it assembles the stage
// operator on a coarse level from the injected coefficients and pins the
// level's rows as the stage pins its own, booking the time to the stage's
// PCSetupLevels. The element kernel is built on the level's first assembly
// and kept in lvl.Scratch, so warm multigrid refreshes create no closures.
func (st *linStage) assembleLevel(lvl *mg.Level) {
	t0 := time.Now()
	kern, ok := lvl.Scratch.(fem.NodeMajorKernel)
	if !ok {
		kern = st.levelK(lvl)
		lvl.Scratch = kern
	}
	lvl.Asm.AssembleMatrix(lvl.Mat, fem.LayoutAIJ, kern)
	pinRows(st.pins, lvl.M, 0, lvl.Mat, nil)
	st.t.PCSetupLevels += time.Since(t0)
}

// nsLevelKernel is the coarse-level momentum element kernel on the
// injected φ/μ and velocity: the fine NS scalar operator A, built with the
// explicit-loop element operators.
func (s *Solver) nsLevelKernel(lvl *mg.Level) fem.NodeMajorKernel {
	m := lvl.M
	dim := m.Dim
	r := lvl.Asm.Ref
	npe := r.NPE
	sc := newNSScratch(npe, r.NG, dim)
	phiMu, vel := lvl.Coef[0], lvl.Coef[1]
	return func(w, e int, h float64, ke []float64) {
		th, dt := s.Opt.Theta, s.Opt.Dt
		m.GatherElem(e, phiMu, 2, sc.pm)
		m.GatherElem(e, vel, dim, sc.velC)
		for a := 0; a < npe; a++ {
			sc.phiC[a] = sc.pm[a*2]
			sc.rho[a] = s.Par.Density(sc.phiC[a])
			sc.eta[a] = s.Par.Viscosity(sc.phiC[a])
		}
		r.WeightedMass(h, sc.rho, 1/dt, ke)
		r.WeightedStiffness(h, sc.eta, th/s.Par.Re, ke)
		for a := 0; a < npe; a++ {
			for d := 0; d < dim; d++ {
				sc.rvel[a*dim+d] = sc.rho[a] * sc.velC[a*dim+d]
			}
		}
		r.Convection(h, sc.rvel, th, ke)
	}
}

// ppLevelKernel is the coarse-level variable-density Poisson element
// kernel K_{1/ρ} on the injected φ.
func (s *Solver) ppLevelKernel(lvl *mg.Level) fem.NodeMajorKernel {
	m := lvl.M
	r := lvl.Asm.Ref
	sc := newPPScratch(r.NPE, r.NG, m.Dim)
	phiMu := lvl.Coef[0]
	return func(w, e int, h float64, ke []float64) {
		m.GatherElem(e, phiMu, 2, sc.pm)
		for a := 0; a < r.NPE; a++ {
			sc.invRho[a] = 1 / s.Par.Density(sc.pm[a*2])
		}
		r.WeightedStiffness(h, sc.invRho, 1, ke)
	}
}
