package chns

import "time"

// ppScratch is the pressure-Poisson kernels' scratch: pm/invRho/cg serve
// the matrix kernel, velC/comp the divergence RHS kernel.
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
	m.GhostRead(s.PhiMu, 2)
	m.GhostRead(s.Vel, m.Dim)
	if s.ppPsi == nil {
		s.ppPsi = m.NewVec(1)
	}
	psi := s.ppPsi
	// Warm starts keep the previous increment (migrated across remeshes)
	// as the initial guess; the tolerance is relative to the RHS either
	// way, so the converged solution is the same.
	if !s.Opt.WarmStarts {
		clear(psi)
	}
	rep, err := s.pp.solve(t0, psi)
	return psi, rep, err
}

// kPPMatZip is the PP matrix element kernel (zipped): K_{1/ρ}.
func (s *Solver) kPPMatZip(w, e int, h float64, blocks [][]float64) {
	r := s.asmS.Ref
	sc := &s.ppScr
	s.M.GatherElem(e, s.PhiMu, 2, sc.pm)
	for a := 0; a < r.NPE; a++ {
		sc.invRho[a] = 1 / s.Par.Density(sc.pm[a*2])
	}
	r.CoefAtGauss(sc.invRho, sc.cg)
	r.StiffGemm(s.asmS.Work(), h, 1, sc.cg, blocks[0])
}

// kPPVec is the PP RHS element kernel: -(1/dt) ∫ N ∇·v*.
func (s *Solver) kPPVec(w, e int, h float64, fe []float64) {
	m := s.M
	dim := m.Dim
	r := s.asmS.Ref
	npe := r.NPE
	sc := &s.ppScr
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
