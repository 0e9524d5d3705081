package chns

import (
	"time"
)

// vuScratch is the velocity-update RHS kernel's scratch, hoisted on the
// Solver so vector assembly allocates nothing per element.
type vuScratch struct {
	pm, velC, psiC []float64
	comp, phiC     []float64
}

func newVUScratch(npe, dim int) vuScratch {
	return vuScratch{
		pm:   make([]float64, npe*2),
		velC: make([]float64, npe*dim),
		psiC: make([]float64, npe),
		comp: make([]float64, npe),
		phiC: make([]float64, npe),
	}
}

// StepVU corrects the tentative velocity to its solenoidal projection
// (Table II: cg + jacobi):
//
//	v^{n+1} = v* - dt (1/ρ) ∇ψ,   p^{n+1} = p^n + ψ
//
// realized weakly as a mass solve per component: DIM single-DOF solves
// reusing one assembled scalar mass matrix (the Sec. II-A memory/assembly
// optimization measured in Table I) instead of one N×DIM block system.
// The report's Result is the final component's solve with Iterations
// accumulated over all components.
func (s *Solver) StepVU(psi []float64) (StageReport, error) {
	t0 := time.Now()
	st := &s.vu
	rep := StageReport{Stage: StageVU}
	m := s.M
	dim := m.Dim
	m.GhostRead(psi, 1)
	m.GhostRead(s.PhiMu, 2)
	m.GhostRead(s.Vel, dim)
	// The RHS kernel reads ψ through this field (cleared before returning
	// so no stale reference pins the caller's buffer).
	s.kVUPsi = psi
	defer func() {
		s.kVUPsi = nil
		st.t.Total += time.Since(t0)
	}()
	st.assemble()
	st.setupPC()
	if s.vuNewVel == nil {
		s.vuNewVel = m.NewVec(dim)
		s.vuComp = m.NewVec(1)
	}
	newVel, comp := s.vuNewVel, s.vuComp
	itSum := 0
	for d := 0; d < dim; d++ {
		s.kVUD = d
		st.assembleRHS()
		if s.Opt.WarmStarts {
			// The tentative component is the natural initial guess for its
			// own mass projection (same converged solution: the tolerance
			// is relative to the RHS).
			for i := range comp {
				comp[i] = s.Vel[i*dim+d]
			}
		} else {
			clear(comp)
		}
		res, err := st.krylov(st.rhs, comp)
		itSum += res.Iterations
		rep.Result = res
		rep.Result.Iterations = itSum
		if err != nil {
			return rep, err
		}
		if !res.Converged {
			return rep, &ErrDiverged{Stage: StageVU, Kind: DivergeKSP, Result: rep.Result}
		}
		for i := 0; i < m.NumOwned; i++ {
			newVel[i*dim+d] = comp[i]
		}
	}
	copy(s.Vel, newVel)
	if err := st.diverged(&rep.Result); err != nil {
		return rep, err
	}
	m.GhostRead(s.Vel, dim)
	// Pressure update: ψ is the kinematic increment; the momentum
	// equation carries ∇p/We, so the accumulated pressure absorbs We.
	for i := 0; i < m.NumLocal; i++ {
		s.P[i] += psi[i] * s.Par.We
	}
	// One fused finite check covers both stage outputs (velocity and the
	// updated pressure) with a single global reduction.
	s.pokeNaN(StageVU, s.Vel)
	bad := s.scanBad(s.Vel, dim*m.NumOwned) | s.scanBad(s.P, m.NumOwned)
	return rep, s.checkFinite(StageVU, bad, rep.Result)
}

// kVUMassZip is the velocity-update matrix element kernel (zipped): the
// scalar mass matrix.
func (s *Solver) kVUMassZip(w, e int, h float64, blocks [][]float64) {
	s.asmS.Ref.MassGemm(s.asmS.Work(), h, 1, nil, blocks[0])
}

// kVUComp is the velocity-update RHS element kernel: the elemental RHS for
// velocity component s.kVUD, ∫ N (v*_d - dt (1/ρ) ψ_,d); ψ reaches it
// through s.kVUPsi (set by StepVU).
func (s *Solver) kVUComp(w, e int, h float64, fe []float64) {
	m := s.M
	dim := m.Dim
	d := s.kVUD
	r := s.asmS.Ref
	npe := r.NPE
	sc := &s.vuVec
	m.GatherElem(e, s.PhiMu, 2, sc.pm)
	m.GatherElem(e, s.Vel, dim, sc.velC)
	m.GatherElem(e, s.kVUPsi, 1, sc.psiC)
	vol := 1.0
	for dd := 0; dd < dim; dd++ {
		vol *= h
	}
	for a := 0; a < npe; a++ {
		sc.comp[a] = sc.velC[a*dim+d]
		sc.phiC[a] = sc.pm[a*2]
	}
	for g := 0; g < r.NG; g++ {
		wg := r.W[g] * vol
		vg := r.AtGauss(g, sc.comp)
		dpsi := r.GradAtGauss(g, d, h, sc.psiC)
		rhoG := s.Par.Density(r.AtGauss(g, sc.phiC))
		f := vg - s.Opt.Dt*dpsi/rhoG
		for a := 0; a < npe; a++ {
			fe[a] += wg * f * r.N[g*npe+a]
		}
	}
}
