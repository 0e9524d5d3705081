package chns

import (
	"time"

	"proteus/internal/blas"
)

// nsScratch is one element-loop worker's private NS matrix-kernel
// scratch, so the sharded assembly runs race-free with zero per-element
// allocation.
type nsScratch struct {
	pm, velC       []float64
	rho, eta, phiC []float64
	tmp            []float64
	rvel           []float64
	rhoG, etaG     []float64
}

func newNSScratch(npe, ng, dim int) nsScratch {
	return nsScratch{
		pm:   make([]float64, npe*2),
		velC: make([]float64, npe*dim),
		rho:  make([]float64, npe),
		eta:  make([]float64, npe),
		phiC: make([]float64, npe),
		tmp:  make([]float64, npe*npe),
		rvel: make([]float64, npe*dim),
		rhoG: make([]float64, ng),
		etaG: make([]float64, ng),
	}
}

// nsVecScratch is one element-loop worker's private NS RHS-kernel
// scratch, hoisted on the Solver so the sharded vector assembly runs
// race-free with zero per-step and per-element allocation.
type nsVecScratch struct {
	pm, velC, pC             []float64
	rho, eta, phiC, muC, tmp []float64
	scalarOld, visc          []float64
	rvel                     []float64
	comp                     []float64
	pGrad                    []float64
}

func newNSVecScratch(npe, dim int) nsVecScratch {
	return nsVecScratch{
		pm:        make([]float64, npe*2),
		velC:      make([]float64, npe*dim),
		pC:        make([]float64, npe),
		rho:       make([]float64, npe),
		eta:       make([]float64, npe),
		phiC:      make([]float64, npe),
		muC:       make([]float64, npe),
		tmp:       make([]float64, npe),
		scalarOld: make([]float64, npe*npe),
		visc:      make([]float64, npe*npe),
		rvel:      make([]float64, npe*dim),
		comp:      make([]float64, npe),
		pGrad:     make([]float64, dim),
	}
}

// StepNS solves the linearized semi-implicit momentum block for the
// tentative velocity v* (Table II: bcgs + bjacobi). The convection
// velocity and the mixture properties are evaluated from the current φ
// (just updated by CH-solve) and the previous velocity, which linearizes
// the system and avoids a Newton setup (Sec. II-A).
//
//	[M_ρ/dt + θ C_ρ(vⁿ) + θ K_η/Re] v* =
//	   M_ρ vⁿ/dt - (1-θ)[C_ρ(vⁿ) + K_η/Re] vⁿ
//	   - G pⁿ + F_st(φ) + F_g(ρ) - C_J(∇μ) vⁿ
//
// with the capillary force F_st = -(Cn/We) ∫ ∇N : (∇φ⊗∇φ), gravity
// F_g = ∫ N ρ ĝ/Fr, and the thermodynamic mass-flux convection C_J
// carrying J = ((ρ⁻/ρ⁺-1)/2)(Cn/Pe) m(φ)∇μ (treated explicitly).
func (s *Solver) StepNS() (StageReport, error) {
	t0 := time.Now()
	m := s.M
	m.GhostRead(s.PhiMu, 2)
	m.GhostRead(s.Vel, m.Dim)
	m.GhostRead(s.P, 1)
	return s.ns.solve(t0, s.Vel)
}

// kNSMatZip is the NS matrix element kernel (zipped): worker w's block of
// the scalar momentum operator A for element e, built from the current φ/μ
// and velocity with the zipped GEMM operators. A acts on every velocity
// component alike (the viscous cross-coupling is lumped into the component
// Laplacian), so the stage stores A once and applies it as A ⊗ I_dim.
func (s *Solver) kNSMatZip(w, e int, h float64, blocks [][]float64) {
	m := s.M
	dim := m.Dim
	r := s.ns.asm.Ref
	npe := r.NPE
	th, dt := s.Opt.Theta, s.Opt.Dt
	sc := &s.nsScr[w]
	m.GatherElem(e, s.PhiMu, 2, sc.pm)
	m.GatherElem(e, s.Vel, dim, sc.velC)
	for a := 0; a < npe; a++ {
		sc.phiC[a] = sc.pm[a*2]
		sc.rho[a] = s.Par.Density(sc.phiC[a])
		sc.eta[a] = s.Par.Viscosity(sc.phiC[a])
	}
	wk := s.ns.asm.WorkN(w)
	op := blocks[0]
	r.CoefAtGauss(sc.rho, sc.rhoG)
	r.CoefAtGauss(sc.eta, sc.etaG)
	r.MassGemm(wk, h, 1/dt, sc.rhoG, op)
	r.StiffGemm(wk, h, th/s.Par.Re, sc.etaG, sc.tmp)
	for i := range sc.tmp {
		op[i] += sc.tmp[i]
	}
	// ρ-weighted convection: fold ρ into the velocity samples.
	for a := 0; a < npe; a++ {
		for d := 0; d < dim; d++ {
			sc.rvel[a*dim+d] = sc.rho[a] * sc.velC[a*dim+d]
		}
	}
	r.ConvGemm(wk, h, th, sc.rvel, sc.tmp)
	for i := range sc.tmp {
		op[i] += sc.tmp[i]
	}
}

// kNSVec is the NS RHS element kernel.
func (s *Solver) kNSVec(w, e int, h float64, fe []float64) {
	m := s.M
	dim := m.Dim
	r := s.asmVel.Ref
	npe := r.NPE
	th, dt := s.Opt.Theta, s.Opt.Dt
	sc := &s.nsVec[w]
	m.GatherElem(e, s.PhiMu, 2, sc.pm)
	m.GatherElem(e, s.Vel, dim, sc.velC)
	m.GatherElem(e, s.P, 1, sc.pC)
	for a := 0; a < npe; a++ {
		sc.phiC[a] = sc.pm[a*2]
		sc.muC[a] = sc.pm[a*2+1]
		sc.rho[a] = s.Par.Density(sc.phiC[a])
		sc.eta[a] = s.Par.Viscosity(sc.phiC[a])
	}
	// Old-velocity terms: M_ρ vⁿ/dt - (1-θ)[C_ρ(vⁿ)+K_η/Re] vⁿ.
	clear(sc.scalarOld)
	r.WeightedMass(h, sc.rho, 1/dt, sc.scalarOld)
	for a := 0; a < npe; a++ {
		for d := 0; d < dim; d++ {
			sc.rvel[a*dim+d] = sc.rho[a] * sc.velC[a*dim+d]
		}
	}
	r.Convection(h, sc.rvel, -(1 - th), sc.scalarOld)
	clear(sc.visc)
	r.WeightedStiffness(h, sc.eta, -(1-th)/s.Par.Re, sc.visc)
	for i := range sc.scalarOld {
		sc.scalarOld[i] += sc.visc[i]
	}
	for d := 0; d < dim; d++ {
		for a := 0; a < npe; a++ {
			sc.comp[a] = sc.velC[a*dim+d]
		}
		blas.Dgemv(npe, npe, 1, sc.scalarOld, sc.comp, 0, sc.tmp)
		for a := 0; a < npe; a++ {
			fe[a*dim+d] += sc.tmp[a]
		}
	}
	// Quadrature-point force terms.
	cn := s.ElemCn[e]
	stc := cn / s.Par.We
	jfc := (s.Par.RhoMinus - 1) / 2 * cn / s.Par.Pe
	vol := 1.0
	for d := 0; d < dim; d++ {
		vol *= h
	}
	for g := 0; g < r.NG; g++ {
		wg := r.W[g] * vol
		var gphi, gmu, jv [3]float64
		for d := 0; d < dim; d++ {
			gphi[d] = r.GradAtGauss(g, d, h, sc.phiC)
			gmu[d] = r.GradAtGauss(g, d, h, sc.muC)
		}
		phiG := r.AtGauss(g, sc.phiC)
		mobG := s.Par.Mobility(phiG)
		rhoG := s.Par.Density(phiG)
		for d := 0; d < dim; d++ {
			sc.pGrad[d] = r.GradAtGauss(g, d, h, sc.pC)
			jv[d] = jfc * mobG * gmu[d]
		}
		// Mass-flux convection (explicit): (J·∇) v_d at this Gauss
		// point, the same for every test function.
		var jdv [3]float64
		for d := 0; d < dim; d++ {
			for dd := 0; dd < dim; dd++ {
				comp2 := 0.0
				for a2 := 0; a2 < npe; a2++ {
					comp2 += r.DN[(g*npe+a2)*dim+dd] / h * sc.velC[a2*dim+d]
				}
				jdv[d] += jv[dd] * comp2
			}
		}
		for a := 0; a < npe; a++ {
			na := r.N[g*npe+a]
			for d := 0; d < dim; d++ {
				f := 0.0
				// Capillary: +(Cn/We) ∇N·(∇φ φ_,d) (integrated by parts).
				for dd := 0; dd < dim; dd++ {
					f += stc * r.DN[(g*npe+a)*dim+dd] / h * gphi[d] * gphi[dd]
				}
				// Pressure gradient (old pressure, 1/We scaling as in
				// the non-dimensional momentum equation).
				f -= na * sc.pGrad[d] / s.Par.We
				// Gravity.
				if s.Par.Fr > 0 {
					f += na * rhoG * s.Par.GravityDir[d] / s.Par.Fr
				}
				// Mass-flux convection: -N (J·∇) v_d / Pe.
				f -= na * jdv[d]
				fe[a*dim+d] += wg * f
			}
		}
	}
}
