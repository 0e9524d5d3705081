package chns

import (
	"fmt"
	"math"
	"testing"

	"proteus/internal/blas"
	"proteus/internal/la"
	"proteus/internal/par"
)

// bitsDiff describes the first bitwise difference between two vectors
// ("" when there is none).
func bitsDiff(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("entry %d = %v, reference %v", i, got[i], want[i])
		}
	}
	return ""
}

// chSweepTrace drives the CH residual and Jacobian sweeps of a test
// problem directly, recording every residual vector and every Jacobian's
// values, in the call orders the block store must be transparent to.
func chSweepTrace(c *par.Comm, dim, vecWorkers int, refill bool) (out [][]float64, fills, reuses int) {
	s, p := chTestProblem(c, dim)
	setVecWorkers(s, vecWorkers)
	s.chRefill = refill
	m, x := s.M, s.PhiMu
	residual := func(x []float64) {
		r := m.NewVec(2)
		p.Residual(x, r)
		out = append(out, r[:2*m.NumOwned])
	}
	jacobian := func(x []float64) {
		op, _ := p.Jacobian(x)
		out = append(out, append([]float64(nil), op.(*la.BSRMat).Vals()...))
	}
	shifted := func(eps float64) []float64 {
		y := m.NewVec(2)
		for i := 0; i < m.NumLocal; i++ {
			px, py, pz := m.NodeCoord(i)
			y[2*i] = x[2*i] + eps*math.Sin(17*px+29*py+11*pz)
			y[2*i+1] = x[2*i+1] + eps*math.Cos(23*px-13*py+7*pz)
		}
		return y
	}
	// Newton call order: J(x0), R(x0), then a trial R(x1) and J(x1).
	x1 := shifted(1e-3)
	jacobian(x)
	residual(x)
	residual(x1)
	jacobian(x1)
	// Finite-difference call order: J(x) after residuals at x ± εv.
	residual(shifted(1e-6))
	residual(shifted(-1e-6))
	jacobian(x)
	residual(x)
	// A μ-only change keeps φ but must still be seen by the key.
	xmu := append([]float64(nil), x...)
	for i := 0; i < m.NumLocal; i++ {
		xmu[2*i+1] += 0.125
	}
	residual(xmu)
	jacobian(xmu)
	// A new velocity at an unchanged iterate re-integrates C only.
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return 0.4 * math.Cos(3*y), 0.2 - x, 0.1 * z
	})
	m.GhostRead(s.Vel, dim)
	residual(xmu)
	jacobian(xmu)
	return out, s.T.CH.BlockFills, s.T.CH.BlockReuses
}

// TestCHBlockStoreBitwise: the residual vectors and Jacobian values read
// through the per-element block store are bit-equal to those of sweeps
// forced to integrate every block afresh, in the Newton call order, the
// finite-difference call order and after a velocity change, in 2D and 3D
// on 1 and 2 ranks with serial and sharded residual sweeps — and the store
// really is reused on the way.
func TestCHBlockStoreBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, ranks := range []int{1, 2} {
			for _, workers := range []int{1, 2} {
				par.Run(ranks, func(c *par.Comm) {
					what := fmt.Sprintf("dim=%d ranks=%d workers=%d rank %d", dim, ranks, workers, c.Rank())
					got, fills, reuses := chSweepTrace(c, dim, workers, false)
					want, refFills, refReuses := chSweepTrace(c, dim, workers, true)
					for i := range want {
						if d := bitsDiff(got[i], want[i]); d != "" {
							panic(fmt.Sprintf("%s: sweep %d with the store vs recomputed: %s", what, i, d))
						}
					}
					// Sweeps 0..11: fills at J(x0), R(x1), R(x+εv), R(x-εv),
					// J(x), R(xmu); every other sweep finds its K_m stored.
					if fills != 6 || reuses != 6 || refFills != 12 || refReuses != 0 {
						panic(fmt.Sprintf("%s: %d fills / %d reuses (forced: %d / %d), want 6 / 6 (12 / 0)",
							what, fills, reuses, refFills, refReuses))
					}
				})
			}
		}
	}
}

// coldRebindRun is what stepsAcrossColdRebind leaves behind on one rank.
type coldRebindRun struct {
	its             [5]int // CH/NS/PP/VU Krylov totals, CH Newton total
	fills, reuses   int    // block store traffic after the rebind only
	phiMu, vel, pre []float64
}

// stepsAcrossColdRebind takes two full steps on a graded mesh, rebinds
// the solver cold (Rebind with no delta: the from-scratch remesh route,
// rollback and restore) onto a different forest, re-initialises φ and μ
// there and takes three more: every CH sweep after the rebind runs on a
// store whose arrays were sized and keyed for the old mesh.
func stepsAcrossColdRebind(c *par.Comm, refill bool) coldRebindRun {
	prm := DefaultParams()
	prm.Cn = 0.06
	prm.Fr = 1
	s := NewSolver(gradedMesh(c, 2, 3, 5), prm, DefaultOptions(5e-4))
	s.chRefill = refill
	init := func() {
		s.SetPhi(func(x, y, z float64) float64 {
			return EquilibriumProfile(0.2-math.Hypot(x-0.4, y-0.55), prm.Cn)
		})
		s.InitMuFromPhi()
	}
	steps := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Step(); err != nil {
				panic(err)
			}
		}
	}
	init()
	steps(2)
	before := s.T.CH
	m2 := gradedMesh(c, 2, 2, 4)
	if m2.NumElems() == s.M.NumElems() {
		panic("the second forest must differ from the first")
	}
	s.Rebind(m2, s.MeshEpoch()+1, nil)
	init()
	steps(3)
	t := s.T
	return coldRebindRun{
		its:   [5]int{t.CH.Iterations, t.NS.Iterations, t.PP.Iterations, t.VU.Iterations, t.CH.Newton},
		fills: t.CH.BlockFills - before.BlockFills, reuses: t.CH.BlockReuses - before.BlockReuses,
		phiMu: s.PhiMu, vel: s.Vel, pre: s.P,
	}
}

// TestCHBlockStoreBitwiseAfterColdRebind: CH solves on a solver rebound
// cold onto a different forest — the route an over-threshold or
// partition-only remesh round, a rollback across a remesh and a restore
// take — need the same Krylov and Newton iterations and leave the same
// field bits on 1 and 2 ranks whether the sweeps share their element
// blocks through the store or integrate every block afresh.
func TestCHBlockStoreBitwiseAfterColdRebind(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		par.Run(ranks, func(c *par.Comm) {
			what := fmt.Sprintf("ranks=%d rank %d", ranks, c.Rank())
			a, b := stepsAcrossColdRebind(c, false), stepsAcrossColdRebind(c, true)
			if a.its != b.its || a.its[4] == 0 {
				panic(fmt.Sprintf("%s: iteration totals CH/NS/PP/VU/Newton %v vs refilled %v", what, a.its, b.its))
			}
			if a.reuses == 0 || b.reuses != 0 || a.fills+a.reuses != b.fills {
				panic(fmt.Sprintf("%s: after the rebind %d fills / %d reuses with the store, %d / %d when refilling",
					what, a.fills, a.reuses, b.fills, b.reuses))
			}
			for name, pair := range map[string][2][]float64{"PhiMu": {a.phiMu, b.phiMu}, "Vel": {a.vel, b.vel}, "P": {a.pre, b.pre}} {
				if d := bitsDiff(pair[0], pair[1]); d != "" {
					panic(fmt.Sprintf("%s: %s with the store vs refilled: %s", what, name, d))
				}
			}
		})
	}
}

// refNSRHS is the NS RHS element kernel as it stood before the (J·∇)v_d
// contraction was hoisted out of the test-function loop, body kept
// verbatim as the oracle (sc is the caller's scratch).
func refNSRHS(s *Solver, sc *nsVecScratch, e int, h float64, fe []float64) {
	m := s.M
	dim := m.Dim
	r := s.asmVel.Ref
	npe := r.NPE
	th, dt := s.Opt.Theta, s.Opt.Dt
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
	for i := range sc.scalarOld {
		sc.scalarOld[i] = 0
	}
	r.WeightedMass(h, sc.rho, 1/dt, sc.scalarOld)
	for a := 0; a < npe; a++ {
		for d := 0; d < dim; d++ {
			sc.rvel[a*dim+d] = sc.rho[a] * sc.velC[a*dim+d]
		}
	}
	r.Convection(h, sc.rvel, -(1 - th), sc.scalarOld)
	for i := range sc.visc {
		sc.visc[i] = 0
	}
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
				// Mass-flux convection (explicit): -N (J·∇) v_d / Pe.
				var jdv float64
				for dd := 0; dd < dim; dd++ {
					comp2 := 0.0
					for a2 := 0; a2 < npe; a2++ {
						comp2 += r.DN[(g*npe+a2)*dim+dd] / h * sc.velC[a2*dim+d]
					}
					jdv += jv[dd] * comp2
				}
				f -= na * jdv
				fe[a*dim+d] += wg * f
			}
		}
	}
}

// nsTestSolver returns a solver on the graded (hanging-node) test mesh
// with every force of the NS RHS active: gravity, a density contrast (so
// the mass-flux convection is non-zero), and non-trivial φ, μ, velocity
// and pressure fields.
func nsTestSolver(c *par.Comm, dim int) *Solver {
	s, _ := chTestProblem(c, dim)
	s.Par.Fr, s.Par.RhoMinus, s.Par.We = 0.5, 0.1, 20
	m := s.M
	for i := 0; i < m.NumLocal; i++ {
		x, y, z := m.NodeCoord(i)
		s.P[i] = math.Sin(3*x) * math.Cos(2*y+z)
	}
	return s
}

// TestNSRHSKernelBitwise pins the NS RHS element kernel, with the
// mass-flux convection contracted once per Gauss point, to the kernel body
// it replaced: every elemental vector on the 2D and 3D hanging-node meshes
// is bit-equal, and so is the assembled RHS on 2 ranks.
func TestNSRHSKernelBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, ranks := range []int{1, 2} {
			par.Run(ranks, func(c *par.Comm) {
				s := nsTestSolver(c, dim)
				m := s.M
				n := s.asmVel.Ref.NPE * dim
				refs := make([]nsVecScratch, len(s.nsVec)) // one per element-loop shard
				for w := range refs {
					refs[w] = newNSVecScratch(s.asmVel.Ref.NPE, dim)
				}
				got, want := make([]float64, n), make([]float64, n)
				nonzero := false
				for e := 0; e < m.NumElems(); e++ {
					clear(got)
					clear(want)
					s.kNSVec(0, e, m.ElemSize(e), got)
					refNSRHS(s, &refs[0], e, m.ElemSize(e), want)
					if d := bitsDiff(got, want); d != "" {
						panic(fmt.Sprintf("dim=%d ranks=%d element %d: %s", dim, ranks, e, d))
					}
					for _, v := range want {
						nonzero = nonzero || v != 0
					}
				}
				if !nonzero {
					panic("all-zero elemental vectors: nothing compared")
				}
				a, b := m.NewVec(dim), m.NewVec(dim)
				s.asmVel.AssembleVectorPlanned(a, s.kNSVec)
				s.asmVel.AssembleVectorPlanned(b, func(w, e int, h float64, fe []float64) { refNSRHS(s, &refs[w], e, h, fe) })
				if d := bitsDiff(a[:dim*m.NumOwned], b[:dim*m.NumOwned]); d != "" {
					panic(fmt.Sprintf("dim=%d ranks=%d assembled RHS: %s", dim, ranks, d))
				}
			})
		}
	}
}

// BenchmarkCHSweeps times the element sweeps of one two-iteration CH Newton
// solve — J(x0), R(x0), R(x1), J(x1), R(x2), assembly only, no PC set-up or
// Krylov solve — with the block store and with every sweep forced to
// integrate its own blocks (what the solver did before the store).
func BenchmarkCHSweeps(b *testing.B) {
	for _, dim := range []int{2, 3} {
		for _, mode := range []string{"store", "refill"} {
			b.Run(fmt.Sprintf("dim=%d/%s", dim, mode), func(b *testing.B) {
				par.Run(1, func(c *par.Comm) {
					s, p := chTestProblem(c, dim)
					s.chRefill = mode == "refill"
					m := s.M
					xs := [3][]float64{s.PhiMu, m.NewVec(2), m.NewVec(2)}
					for k := 1; k < 3; k++ {
						for i, v := range s.PhiMu {
							xs[k][i] = v * (1 - 1e-3*float64(k))
						}
					}
					res := m.NewVec(2)
					p.Jacobian(xs[0]) // cold assembly: allocates the operator and its plan
					jac := func(x []float64) {
						s.kCHx = x
						s.chBeginSweep(x)
						s.ch.mat.Zero()
						s.asmCH.AssembleMatrixZipped(s.ch.mat, s.kCHJacZip)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.chBlk.drop()
						jac(xs[0])
						p.Residual(xs[0], res)
						p.Residual(xs[1], res)
						jac(xs[1])
						p.Residual(xs[2], res)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NumElems()), "ns/elem")
				})
			})
		}
	}
}

// BenchmarkNSRHS times one planned assembly of the NS right-hand side.
func BenchmarkNSRHS(b *testing.B) {
	for _, dim := range []int{2, 3} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			par.Run(1, func(c *par.Comm) {
				s := nsTestSolver(c, dim)
				rhs := s.M.NewVec(dim)
				s.asmVel.AssembleVectorPlanned(rhs, s.kNSVec) // builds the vector plan
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.asmVel.AssembleVectorPlanned(rhs, s.kNSVec)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.M.NumElems()), "ns/elem")
			})
		})
	}
}
