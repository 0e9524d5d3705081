package chns

import (
	"math"
	"slices"
	"time"

	"proteus/internal/blas"
	"proteus/internal/fault"
	"proteus/internal/fem"
	"proteus/internal/la"
)

// chOps holds the elemental operator blocks the CH residual and Jacobian
// are combined from (all NPE x NPE scalar blocks), plus the mobility
// coefficient scratch used to build them, so the element loop allocates
// nothing. Kme and Ce are views of the element's slots in the Solver's
// chBlockStore, re-pointed per element by elemOps.
type chOps struct {
	Me  []float64 // mass
	Ke  []float64 // stiffness
	Kme []float64 // mobility-weighted stiffness
	Ce  []float64 // convection with the current velocity

	mob, mobG []float64 // mobility at corners and at Gauss points
}

func newCHOps(npe, ng int) *chOps {
	n := npe * npe
	return &chOps{
		Me: make([]float64, n), Ke: make([]float64, n),
		mob: make([]float64, npe), mobG: make([]float64, ng),
	}
}

// chBlockStore keeps every element's integrated CH blocks — K_m(φ) and
// C(u) — with the ghost-consistent φ,μ iterate and the velocity they were
// integrated at, so the residual and Jacobian sweeps of a Newton solve
// integrate each block once between them: a k-iteration solve runs k+1
// K_m and one C quadrature per element instead of 2k+1 of each. Validity
// is by value (rekey), never by which sweep ran last, so any call order of
// Residual and Jacobian reads what a fresh integration would produce. What
// the keys do not cover — mesh, Params — is fixed for the length of a
// solve: StepCH and the rebinds drop the store.
type chBlockStore struct {
	km, ce       []float64 // element e's blocks at [e*NPE², (e+1)*NPE²)
	x, vel       []float64 // keys: what km / ce were integrated at (empty: nothing)
	fillK, fillC bool      // the sweep in progress integrates km / ce
}

// drop invalidates the stored blocks; the arrays stay for the next mesh.
func (b *chBlockStore) drop() { b.x, b.vel = b.x[:0], b.vel[:0] }

// rekey reports whether blocks keyed by *key must be integrated afresh for
// cur — reuse is off or cur differs from the key in any bit — and if so
// makes cur the key.
func rekey(key *[]float64, reuse bool, cur []float64) bool {
	if reuse && slices.EqualFunc(*key, cur, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		return false
	}
	*key = append((*key)[:0], cur...)
	return true
}

// chBeginSweep opens a CH element sweep at the ghost-consistent iterate x:
// it decides which stored blocks the sweep reads and which it integrates
// afresh, and counts the sweep as a fill or a reuse of K_m.
func (s *Solver) chBeginSweep(x []float64) {
	b := &s.chBlk
	if n := s.M.NumElems() * len(s.asmCH.Ref.M1); len(b.km) != n {
		b.km, b.ce = slices.Grow(b.km[:0], n)[:n], slices.Grow(b.ce[:0], n)[:n]
		b.drop()
	}
	b.fillK = rekey(&b.x, !s.chRefill, x)
	b.fillC = rekey(&b.vel, !s.chRefill, s.Vel)
	if b.fillK {
		s.T.CH.BlockFills++
	} else {
		s.T.CH.BlockReuses++
	}
}

// chScratch is the CH Jacobian kernel's scratch.
type chScratch struct {
	ops       *chOps
	pm, pmOld []float64 // φ,μ corner values at the iterate and at time n
	vel       []float64 // velocity corner values

	// Mobility-derivative block: μ̄ = θμ + (1-θ)μ_old at corners, ∇μ̄ at
	// Gauss points, Gm = ∫ (∇N_a·∇μ̄) N_b, and the per-column factors
	// m'(φ_b)/(Pe Cn) and ψ''(φ_b).
	mubar, gradG, Gm []float64
	dmob, psi2       []float64
}

// chResScratch is the CH residual kernel's scratch, held on the Solver so
// Residual allocates nothing per Newton iteration.
type chResScratch struct {
	ops                          *chOps
	pm, pmOld, vel               []float64
	phiNew, muNew, phiOld, muOld []float64
	psi1, tmp, load              []float64
}

func newCHResScratch(npe, ng, dim int) chResScratch {
	return chResScratch{
		ops: newCHOps(npe, ng),
		pm:  make([]float64, npe*2), pmOld: make([]float64, npe*2),
		vel:    make([]float64, npe*dim),
		phiNew: make([]float64, npe), muNew: make([]float64, npe),
		phiOld: make([]float64, npe), muOld: make([]float64, npe),
		psi1: make([]float64, npe), tmp: make([]float64, npe),
		load: make([]float64, npe),
	}
}

func newCHScratch(npe, ng, dim int) chScratch {
	return chScratch{
		ops: newCHOps(npe, ng),
		pm:  make([]float64, npe*2), pmOld: make([]float64, npe*2),
		vel:   make([]float64, npe*dim),
		mubar: make([]float64, npe), gradG: make([]float64, ng*dim),
		Gm:   make([]float64, npe*npe),
		dmob: make([]float64, npe), psi2: make([]float64, npe),
	}
}

// chProblem is the Newton problem for the fully implicit CH block.
type chProblem struct {
	s     *Solver
	old   []float64 // φ,μ at time n (ghost-consistent copy)
	dt    float64
	theta float64
}

// elemOps points ops at the blocks of element e (side h) for
// the sweep in progress. M and K are the reference blocks scaled by h;
// K_m(φ) and C(u) are the element's slots in the block store, integrated
// here — from the φ,μ corner values pm and the velocity, gathered into vel
// — with the zipped GEMM operators, only when chBeginSweep found them
// stale.
func (p *chProblem) elemOps(e int, h float64, pm, vel []float64, ops *chOps) {
	s := p.s
	r := s.asmCH.Ref
	b := &s.chBlk
	n2 := r.NPE * r.NPE
	ops.Kme, ops.Ce = b.km[e*n2:(e+1)*n2], b.ce[e*n2:(e+1)*n2]
	r.MassStiffness(h, ops.Me, ops.Ke)
	wk := s.asmCH.Work()
	if b.fillK {
		for a := 0; a < r.NPE; a++ {
			ops.mob[a] = s.Par.Mobility(pm[a*2])
		}
		r.CoefAtGauss(ops.mob, ops.mobG)
		r.StiffGemm(wk, h, 1, ops.mobG, ops.Kme)
	}
	if b.fillC {
		s.M.GatherElem(e, s.Vel, s.M.Dim, vel)
		r.ConvGemm(wk, h, 1, vel, ops.Ce)
	}
}

// Residual implements la.NewtonProblem. The element kernel is kCHRes
// (held by the CH stage); the iterate reaches it through s.kCHx.
func (p *chProblem) Residual(x, res []float64) {
	s := p.s
	t0 := time.Now()
	s.M.GhostRead(x, 2)
	s.kCHx = x
	s.chBeginSweep(x)
	s.asmCH.AssembleVectorPlanned(res, s.ch.vecK)
	s.T.CH.Vector += time.Since(t0)
}

// kCHRes is the CH residual element kernel, and kCHJacZip the (zipped)
// Jacobian one. Both read the Newton iterate through s.kCHx and the rest
// through the Solver at call time, so they survive a Rebind.
func (s *Solver) kCHRes(w, e int, h float64, fe []float64) {
	p := &s.chProb
	m := s.M
	r := s.asmCH.Ref
	npe := r.NPE
	sc := &s.chRes
	ops := sc.ops
	m.GatherElem(e, s.kCHx, 2, sc.pm)
	m.GatherElem(e, p.old, 2, sc.pmOld)
	for a := 0; a < npe; a++ {
		sc.phiNew[a] = sc.pm[a*2]
		sc.muNew[a] = sc.pm[a*2+1]
		sc.phiOld[a] = sc.pmOld[a*2]
		sc.muOld[a] = sc.pmOld[a*2+1]
		sc.psi1[a] = PsiPrime(sc.phiNew[a])
	}
	p.elemOps(e, h, sc.pm, sc.vel, ops)
	cn := s.ElemCn[e]
	diff := 1 / (s.Par.Pe * cn)
	th, th1 := p.theta, 1-p.theta
	// R_phi = M(phi-phiOld)/dt + th[C phi + D Km mu]
	//       + (1-th)[C phiOld + D Km muOld]
	addMatVec(fe, 0, 2, ops.Me, sc.phiNew, 1/p.dt, sc.tmp, npe)
	addMatVec(fe, 0, 2, ops.Me, sc.phiOld, -1/p.dt, sc.tmp, npe)
	addMatVec(fe, 0, 2, ops.Ce, sc.phiNew, th, sc.tmp, npe)
	addMatVec(fe, 0, 2, ops.Kme, sc.muNew, th*diff, sc.tmp, npe)
	addMatVec(fe, 0, 2, ops.Ce, sc.phiOld, th1, sc.tmp, npe)
	addMatVec(fe, 0, 2, ops.Kme, sc.muOld, th1*diff, sc.tmp, npe)
	// R_mu = M mu - F(psi'(phi)) - Cn^2 K phi
	addMatVec(fe, 1, 2, ops.Me, sc.muNew, 1, sc.tmp, npe)
	clear(sc.load)
	r.LoadVector(h, sc.psi1, 1, sc.load)
	for a := 0; a < npe; a++ {
		fe[a*2+1] -= sc.load[a]
	}
	addMatVec(fe, 1, 2, ops.Ke, sc.phiNew, -cn*cn, sc.tmp, npe)
}

func (s *Solver) kCHJacZip(w, e int, h float64, blocks [][]float64) {
	p := &s.chProb
	r := s.asmCH.Ref
	npe, dim := r.NPE, r.Dim
	sc := &s.chScr
	ops, wk := sc.ops, s.asmCH.Work()
	s.M.GatherElem(e, s.kCHx, 2, sc.pm)
	s.M.GatherElem(e, p.old, 2, sc.pmOld)
	p.elemOps(e, h, sc.pm, sc.vel, ops)
	cn := s.ElemCn[e]
	diff := 1 / (s.Par.Pe * cn)
	th := p.theta
	for a := 0; a < npe; a++ {
		sc.mubar[a] = th*sc.pm[a*2+1] + (1-th)*sc.pmOld[a*2+1]
		sc.dmob[a] = diff * s.Par.MobilityPrime(sc.pm[a*2])
		sc.psi2[a] = PsiDoublePrime(sc.pm[a*2])
	}
	for g := 0; g < r.NG; g++ {
		for d := 0; d < dim; d++ {
			sc.gradG[g*dim+d] = r.GradAtGauss(g, d, h, sc.mubar)
		}
	}
	r.GradDotMassGemm(wk, h, 1, sc.gradG, sc.Gm)
	for a := 0; a < npe; a++ {
		for b := 0; b < npe; b++ {
			i := a*npe + b
			blocks[0][i] = ops.Me[i]/p.dt + th*ops.Ce[i] + sc.dmob[b]*sc.Gm[i]
			blocks[1][i] = th * diff * ops.Kme[i]
			blocks[2][i] = -ops.Me[i]*sc.psi2[b] - cn*cn*ops.Ke[i]
			blocks[3][i] = ops.Me[i]
		}
	}
}

// addMatVec computes fe[a*ndof+dof] += scale * (A * v)_a with A npe x npe.
func addMatVec(fe []float64, dof, ndof int, a, v []float64, scale float64, tmp []float64, npe int) {
	blas.Dgemv(npe, npe, scale, a, v, 0, tmp)
	for i := 0; i < npe; i++ {
		fe[i*ndof+dof] += tmp[i]
	}
}

// Jacobian implements la.NewtonProblem with the exact derivative of
// Residual (x arrives ghost-consistent, so no exchange here). With
// μ̄ = θμ + (1-θ)μ_old and element blocks indexed [a][b]:
//
//	J(φ,φ) = M/dt + θC + m'(φ_b)/(Pe Cn) ∫ (∇N_a·∇μ̄) N_b
//	J(φ,μ) = θ/(Pe Cn) K_m(φ)
//	J(μ,φ) = -M_ab ψ''(φ_b) - Cn²K
//	J(μ,μ) = M
//
// The third J(φ,φ) term is ∂/∂φ of K_m(φ)μ̄ through the nodally
// interpolated mobility; J(μ,φ) scales mass columns because the residual
// interpolates ψ'(φ) nodally (LoadVector).
func (p *chProblem) Jacobian(x []float64) (la.Operator, la.PC) {
	s := p.s
	s.kCHx = x
	s.chBeginSweep(x)
	st := &s.ch
	st.assemble()
	st.setupPC()
	return st.mat, st.pc
}

// StepCH advances the Cahn–Hilliard block one time step with the current
// velocity field (Table II: bcgs + bjacobi inside Newton). If velOverride
// is non-nil it replaces s.Vel for this step. The report carries the
// Newton outcome; a stalled Newton iteration, an injected divergence or
// a non-finite φ/μ field returns a *ErrDiverged (globally consistent
// across ranks).
func (s *Solver) StepCH(velOverride []float64) (StageReport, error) {
	t0 := time.Now()
	st := &s.T.CH
	defer func() { st.Total += time.Since(t0) }()
	if velOverride != nil {
		copy(s.Vel, velOverride)
	}
	m := s.M
	m.GhostRead(s.PhiMu, 2)
	m.GhostRead(s.Vel, m.Dim)
	if s.chOld == nil {
		s.chOld = make([]float64, len(s.PhiMu))
	}
	copy(s.chOld, s.PhiMu)
	s.chBlk.drop()
	s.chProb = chProblem{s: s, old: s.chOld, dt: s.Opt.Dt, theta: s.Opt.Theta}
	// The driver and its workspace persist across steps and remeshes (Rebind
	// keeps them); its reducer follows the current mesh generation.
	// LinTol is the floor of its forcing sequence, not the tolerance of every
	// inner solve (la.Newton).
	nw := &s.chNewton
	nw.KSP, nw.Rtol, nw.Atol, nw.LinRtol, nw.MaxIt = la.BiCGS, s.Opt.NonlinTol, s.Opt.NonlinTol, s.Opt.LinTol, 30
	nw.Red = m
	ok, err := nw.Solve(&s.chProb, s.PhiMu)
	m.GhostRead(s.PhiMu, 2)
	rep := StageReport{Stage: StageCH, Result: nw.Last, NewtonIterations: nw.Iterations,
		NewtonConverged: ok, NewtonContraction: nw.Contraction}
	// One record per step: the Newton driver aggregates its inner Krylov
	// iterations and time, so min/mean/max track per-step work.
	st.RecordNewton(nw)
	st.Solve += nw.SolveTime
	if s.postRemesh {
		s.T.RemeshStages.PostCHIters += nw.LinearIterations
	}
	if err != nil {
		return rep, err
	}
	if s.Fault.Fire(fault.KSPDiverge, string(StageCH)) {
		ok, rep.NewtonConverged = false, false
		rep.Result.Converged = false
	}
	if !ok {
		return rep, &ErrDiverged{Stage: StageCH, Kind: DivergeNewton,
			Result: rep.Result, NewtonIterations: nw.Iterations}
	}
	s.pokeNaN(StageCH, s.PhiMu)
	return rep, s.checkFinite(StageCH, s.scanBad(s.PhiMu, 2*m.NumOwned), rep.Result)
}

// InitMuFromPhi sets μ = ψ'(φ) - Cn²Δφ consistently by solving the mass
// system M μ = F(ψ'(φ)) + Cn² K φ, so the first step does not see a
// spurious chemical potential. The error reports a misconfigured mass
// solver; the CG solve on an SPD mass matrix does not fail numerically.
func (s *Solver) InitMuFromPhi() error {
	m := s.M
	m.GhostRead(s.PhiMu, 2)
	r := s.asmS.Ref
	npe := r.NPE
	rhs := m.NewVec(1)
	pm := make([]float64, npe*2)
	phiC := make([]float64, npe)
	psi1 := make([]float64, npe)
	ke := make([]float64, npe*npe)
	tmp := make([]float64, npe)
	s.asmS.AssembleVector(rhs, func(e int, h float64, fe []float64) {
		m.GatherElem(e, s.PhiMu, 2, pm)
		for a := 0; a < npe; a++ {
			phiC[a] = pm[a*2]
			psi1[a] = PsiPrime(phiC[a])
		}
		r.LoadVector(h, psi1, 1, fe)
		clear(ke)
		r.Stiffness(h, 1, ke)
		cn := s.ElemCn[e]
		blas.Dgemv(npe, npe, cn*cn, ke, phiC, 0, tmp)
		for a := 0; a < npe; a++ {
			fe[a] += tmp[a]
		}
	})
	// The mass operator is assembled once per mesh generation (node-major,
	// BAIJ) and solved through the stage's KSP part.
	st := &s.chMass
	if st.mat == nil {
		st.mat = s.asmS.NewMatrix(fem.LayoutBAIJ)
		s.asmS.AssembleMatrix(st.mat, fem.LayoutBAIJ, func(w, e int, h float64, ke []float64) {
			r.Mass(h, 1, ke)
		})
		st.setupPC()
	}
	mu := m.NewVec(1)
	if _, err := st.krylov(rhs, mu); err != nil {
		return err
	}
	m.GhostRead(mu, 1)
	for i := 0; i < m.NumLocal; i++ {
		s.PhiMu[i*2+1] = mu[i]
	}
	return nil
}
