package chns

import (
	"fmt"
	"math"
	"testing"

	"proteus/internal/fem"
	"proteus/internal/la"
	"proteus/internal/par"
)

// vuBlockMat returns the element kernel of the coupled velocity update's
// N×DIM block mass matrix: the scalar mass replicated on every velocity
// component, written node-major (the baseline layout of Table I), with one
// scalar scratch block per worker of the velocity assembler.
func vuBlockMat(s *Solver) fem.NodeMajorKernel {
	r := s.asmS.Ref
	npe := r.NPE
	scr := make([][]float64, s.asmVel.Workers())
	for i := range scr {
		scr[i] = make([]float64, npe*npe)
	}
	return func(w, e int, h float64, ke []float64) {
		dim := s.M.Dim
		scalar := scr[w]
		for i := range scalar {
			scalar[i] = 0
		}
		r.Mass(h, 1, scalar)
		n := npe * dim
		for a := 0; a < npe; a++ {
			for b := 0; b < npe; b++ {
				for d := 0; d < dim; d++ {
					ke[(a*dim+d)*n+b*dim+d] = scalar[a*npe+b]
				}
			}
		}
	}
}

// vuBlockVec returns the element kernel of the coupled velocity update's
// RHS: for every component d, ∫ N (v*_d - dt (1/ρ) ψ_,d) at stride DIM,
// with one scratch per worker of the velocity assembler.
func vuBlockVec(s *Solver, psi []float64) func(w, e int, h float64, fe []float64) {
	r := s.asmS.Ref
	npe := r.NPE
	scr := make([]vuScratch, s.asmVel.Workers())
	for i := range scr {
		scr[i] = newVUScratch(npe, s.M.Dim)
	}
	return func(w, e int, h float64, fe []float64) {
		m := s.M
		dim := m.Dim
		sc := &scr[w]
		m.GatherElem(e, s.PhiMu, 2, sc.pm)
		m.GatherElem(e, s.Vel, dim, sc.velC)
		m.GatherElem(e, psi, 1, sc.psiC)
		vol := 1.0
		for dd := 0; dd < dim; dd++ {
			vol *= h
		}
		for d := 0; d < dim; d++ {
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
					fe[a*dim+d] += wg * f * r.N[g*npe+a]
				}
			}
		}
	}
}

// coupledVU is the velocity update the split per-component solve of StepVU
// replaced: one N×DIM block mass system, assembled node-major (BAIJ), with
// no-slip rows pinned and a Jacobi-preconditioned CG solve from the
// tentative velocity. It overwrites s.Vel with the projected velocity and
// leaves the pressure alone. The Table I baseline, kept as the oracle the
// split solve is checked against.
func coupledVU(s *Solver, psi []float64) (la.Result, error) {
	m := s.M
	dim := m.Dim
	m.GhostRead(psi, 1)
	m.GhostRead(s.PhiMu, 2)
	m.GhostRead(s.Vel, dim)
	mat := s.asmVel.NewMatrix(fem.LayoutBAIJ)
	s.asmVel.AssembleMatrix(mat, fem.LayoutBAIJ, vuBlockMat(s))
	rhs := m.NewVec(dim)
	s.asmVel.AssembleVectorPlanned(rhs, vuBlockVec(s, psi))
	for i := 0; i < m.NumOwned; i++ {
		if m.OnBoundary(i) {
			for d := 0; d < dim; d++ {
				mat.ZeroRow(i*dim+d, 1)
				rhs[i*dim+d] = 0
			}
		}
	}
	ksp := &la.KSP{Type: la.CG, Rtol: s.Opt.LinTol, Atol: s.Opt.LinTol,
		Op: mat, PC: la.NewPCJacobi(mat), Red: m, Pool: s.pool}
	res, err := ksp.Solve(rhs, s.Vel)
	m.GhostRead(s.Vel, dim)
	return res, err
}

// TestSplitVUMatchesCoupled: the split velocity update (one scalar mass
// solve per component) lands within 1e-9 of the coupled block system it
// replaced, after a full step from the same state.
func TestSplitVUMatchesCoupled(t *testing.T) {
	run := func(split bool) []float64 {
		var snap []float64
		par.Run(1, func(c *par.Comm) {
			m := uniformMesh(c, 2, 3)
			par2 := DefaultParams()
			par2.Cn = 0.1
			par2.Fr = 1
			opt := DefaultOptions(1e-3)
			opt.LinTol = 1e-12
			s := NewSolver(m, par2, opt)
			s.SetPhi(func(x, y, z float64) float64 {
				return EquilibriumProfile(0.2-math.Hypot(x-0.5, y-0.4), par2.Cn)
			})
			s.InitMuFromPhi()
			if split {
				if _, err := s.Step(); err != nil {
					panic(err)
				}
			} else {
				if _, err := s.StepCH(nil); err != nil {
					panic(err)
				}
				if _, err := s.StepNS(); err != nil {
					panic(err)
				}
				psi, _, err := s.StepPP()
				if err != nil {
					panic(err)
				}
				if res, err := coupledVU(s, psi); err != nil || !res.Converged {
					panic(fmt.Sprintf("coupled VU: %+v, %v", res, err))
				}
			}
			snap = append([]float64(nil), s.Vel[:m.NumOwned*m.Dim]...)
		})
		return snap
	}
	a := run(true)
	b := run(false)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("split vs coupled VU differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// BenchmarkTableI reproduces the matrix columns of Table I: the time to
// assemble each stage's operator once, per storage layout, on the CH test
// problem's fields (a diffuse interface, a non-zero velocity) over a 3D
// mesh graded from level 3 to 5 (hanging nodes). Every layout runs the
// stage's production (zipped GEMM) element kernel; the node-major layouts
// take its blocks through fem.UnzipMat, so the layouts differ only in
// storage and scatter. NS's AIJ and BAIJ rows are the baseline's N×DIM
// block momentum system (the expansion A ⊗ I_dim, kNSMatExpanded), its
// Zipped row the scalar operator A that stage 2 stores; likewise VU's AIJ
// row is the coupled N×DIM block mass system (vuBlockMat), its BAIJ and
// Zipped rows the split scalar mass matrix of stages 1 and 2. The CH Jacobian reads the element block store
// its residual sweep filled, as every production Jacobian does.
func BenchmarkTableI(b *testing.B) {
	layouts := []struct {
		name string
		lay  fem.Layout
	}{{"AIJ", fem.LayoutAIJ}, {"BAIJ", fem.LayoutBAIJ}, {"Zipped", fem.LayoutZipped}}
	for _, stage := range []string{"ch", "ns", "pp", "vu"} {
		for _, l := range layouts {
			b.Run(stage+"/"+l.name, func(b *testing.B) {
				par.Run(1, func(c *par.Comm) {
					s, p := chTestProblemOn(gradedMesh(c, 3, 3, 5))
					s.kCHx = s.PhiMu
					asm, kern := s.asmS, fem.ZippedKernel(func(w, e int, h float64, blocks [][]float64) {
						s.asmS.Ref.MassGemm(s.asmS.WorkN(w), h, 1, nil, blocks[0])
					})
					switch stage {
					case "ch":
						asm, kern = s.asmCH, s.kCHJacZip
						p.Residual(s.PhiMu, s.M.NewVec(2))
					case "ns":
						asm, kern = s.asmS, s.kNSMatZip
						if l.lay != fem.LayoutZipped {
							s.SetNSExpandedPC(true)
							asm, kern = s.asmVel, s.kNSMatExpanded
						}
					case "pp":
						asm, kern = s.asmS, s.kPPMatZip
					}
					var assemble func(mat *la.BSRMat)
					switch {
					case stage == "vu" && l.lay == fem.LayoutAIJ:
						asm = s.asmVel
						blockMat := vuBlockMat(s)
						assemble = func(mat *la.BSRMat) { asm.AssembleMatrix(mat, l.lay, blockMat) }
					case l.lay == fem.LayoutZipped:
						assemble = func(mat *la.BSRMat) { asm.AssembleMatrixZipped(mat, kern) }
					default:
						nd, npe := asm.Ndof, asm.Ref.NPE
						blocks := make([][][]float64, asm.Workers())
						for w := range blocks {
							blocks[w] = make([][]float64, nd*nd)
							for i := range blocks[w] {
								blocks[w][i] = make([]float64, npe*npe)
							}
						}
						unzipped := func(w, e int, h float64, ke []float64) {
							for _, blk := range blocks[w] {
								clear(blk)
							}
							kern(w, e, h, blocks[w])
							fem.UnzipMat(nd, npe, blocks[w], ke)
						}
						assemble = func(mat *la.BSRMat) { asm.AssembleMatrix(mat, l.lay, unzipped) }
					}
					if stage == "ch" {
						s.chBeginSweep(s.PhiMu)
					}
					mat := asm.NewMatrix(l.lay)
					assemble(mat)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						mat.Zero()
						assemble(mat)
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, stage+"-mat-ms")
					b.ReportMetric(float64(s.M.NumElems()), "elements")
				})
			})
		}
	}
}
