package chns

import (
	"fmt"
	"math"
	"testing"

	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// DivergenceL2 returns the global L2 norm of ∇·v, the quantity the
// projection step drives down.
func (s *Solver) DivergenceL2() float64 {
	m := s.M
	dim := m.Dim
	r := s.asmS.Ref
	npe := r.NPE
	m.GhostRead(s.Vel, dim)
	velC := make([]float64, npe*dim)
	comp := make([]float64, npe)
	var acc float64
	for e := 0; e < m.NumElems(); e++ {
		h := s.M.ElemSize(e)
		m.GatherElem(e, s.Vel, dim, velC)
		vol := 1.0
		for d := 0; d < dim; d++ {
			vol *= h
		}
		for g := 0; g < r.NG; g++ {
			var div float64
			for d := 0; d < dim; d++ {
				for a := 0; a < npe; a++ {
					comp[a] = velC[a*dim+d]
				}
				div += r.GradAtGauss(g, d, h, comp)
			}
			acc += r.W[g] * vol * div * div
		}
	}
	return math.Sqrt(s.M.GlobalSum(acc))
}

func uniformMesh(c *par.Comm, dim, level int) *mesh.Mesh {
	tr := octree.Uniform(dim, level)
	p := c.Size()
	n := tr.Len()
	lo, hi := c.Rank()*n/p, (c.Rank()+1)*n/p
	local := make([]sfc.Octant, hi-lo)
	copy(local, tr.Leaves[lo:hi])
	return mesh.New(c, dim, local)
}

func TestMixtureProperties(t *testing.T) {
	p := DefaultParams()
	if p.Density(1) != 1 || math.Abs(p.Density(-1)-p.RhoMinus) > 1e-14 {
		t.Fatalf("density endpoints wrong: %v %v", p.Density(1), p.Density(-1))
	}
	if p.Viscosity(1) != 1 || math.Abs(p.Viscosity(-1)-p.EtaMinus) > 1e-14 {
		t.Fatal("viscosity endpoints wrong")
	}
	if p.Mobility(0) != 1 {
		t.Fatal("mobility at 0 must be 1")
	}
	if p.Mobility(1) > 0.05 || p.Mobility(1) <= 0 {
		t.Fatalf("degenerate mobility at ±1 should be small positive: %v", p.Mobility(1))
	}
	if PsiPrime(1) != 0 || PsiPrime(-1) != 0 || PsiPrime(0) != 0 {
		t.Fatal("double well critical points wrong")
	}
}

func TestCHMassConservation(t *testing.T) {
	for _, p := range []int{1, 3} {
		par.Run(p, func(c *par.Comm) {
			m := uniformMesh(c, 2, 4)
			par2 := DefaultParams()
			par2.Cn = 0.06
			s := NewSolver(m, par2, DefaultOptions(2e-3))
			s.SetPhi(func(x, y, z float64) float64 {
				return EquilibriumProfile(0.2-math.Hypot(x-0.5, y-0.5), par2.Cn)
			})
			s.InitMuFromPhi()
			m0 := s.PhiMass()
			for step := 0; step < 3; step++ {
				s.StepCHWithVelocity(func(x, y, z float64) (float64, float64, float64) {
					return -(y - 0.5), x - 0.5, 0 // rigid rotation
				})
			}
			m1 := s.PhiMass()
			if rel := math.Abs(m1-m0) / math.Abs(m0); rel > 1e-6 {
				panic(fmt.Sprintf("p=%d: phase mass drift %v (%v -> %v)", p, rel, m0, m1))
			}
		})
	}
}

func TestCHEquilibriumIsStationary(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		m := uniformMesh(c, 2, 4)
		par2 := DefaultParams()
		par2.Cn = 0.08
		s := NewSolver(m, par2, DefaultOptions(5e-3))
		// Flat interface at y=0.5 with the equilibrium tanh profile.
		s.SetPhi(func(x, y, z float64) float64 {
			return EquilibriumProfile(y-0.5, par2.Cn)
		})
		s.InitMuFromPhi()
		before := append([]float64(nil), s.PhiMu...)
		for step := 0; step < 3; step++ {
			s.StepCH(nil) // zero velocity
		}
		var maxDiff float64
		for i := 0; i < m.NumOwned; i++ {
			if d := math.Abs(s.PhiMu[2*i] - before[2*i]); d > maxDiff {
				maxDiff = d
			}
		}
		maxDiff = m.GlobalMax(maxDiff)
		if maxDiff > 0.02 {
			panic(fmt.Sprintf("equilibrium profile drifted by %v", maxDiff))
		}
	})
}

func TestCHBoundsStayPhysical(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		m := uniformMesh(c, 2, 4)
		par2 := DefaultParams()
		par2.Cn = 0.08
		s := NewSolver(m, par2, DefaultOptions(2e-3))
		s.SetPhi(func(x, y, z float64) float64 {
			return EquilibriumProfile(0.18-math.Hypot(x-0.5, y-0.5), par2.Cn)
		})
		s.InitMuFromPhi()
		for step := 0; step < 4; step++ {
			s.StepCHWithVelocity(func(x, y, z float64) (float64, float64, float64) {
				sp := math.Sin(math.Pi * x)
				return sp * sp * math.Sin(2*math.Pi*y) / math.Pi, 0, 0
			})
		}
		var worst float64
		for i := 0; i < m.NumOwned; i++ {
			if a := math.Abs(s.PhiMu[2*i]); a > worst {
				worst = a
			}
		}
		worst = m.GlobalMax(worst)
		if worst > 1.25 {
			panic(fmt.Sprintf("phase field blew past bounds: |phi| = %v", worst))
		}
	})
}

func TestCHParallelMatchesSerial(t *testing.T) {
	run := func(p int) map[mesh.NodeKey]float64 {
		out := map[mesh.NodeKey]float64{}
		par.Run(p, func(c *par.Comm) {
			m := uniformMesh(c, 2, 3)
			par2 := DefaultParams()
			par2.Cn = 0.1
			s := NewSolver(m, par2, DefaultOptions(5e-3))
			s.SetPhi(func(x, y, z float64) float64 {
				return EquilibriumProfile(0.2-math.Hypot(x-0.5, y-0.5), par2.Cn)
			})
			s.InitMuFromPhi()
			s.StepCH(nil)
			type kv struct {
				K mesh.NodeKey
				V float64
			}
			var local []kv
			for i := 0; i < m.NumOwned; i++ {
				local = append(local, kv{m.Keys[i], s.PhiMu[2*i]})
			}
			all := par.Allgatherv(c, local)
			if c.Rank() == 0 {
				for _, e := range all {
					out[e.K] = e.V
				}
			}
		})
		return out
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) != len(parallel) {
		t.Fatal("node sets differ")
	}
	for k, v := range serial {
		if math.Abs(parallel[k]-v) > 1e-7 {
			t.Fatalf("node %v: serial %v parallel %v", k, v, parallel[k])
		}
	}
}

func TestProjectionReducesDivergence(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		m := uniformMesh(c, 2, 4)
		par2 := DefaultParams()
		par2.Cn = 0.08
		par2.Fr = 1 // gravity on
		s := NewSolver(m, par2, DefaultOptions(1e-3))
		s.SetPhi(func(x, y, z float64) float64 {
			return EquilibriumProfile(0.15-math.Hypot(x-0.5, y-0.35), par2.Cn)
		})
		s.InitMuFromPhi()
		s.StepCH(nil)
		s.StepNS()
		divBefore := s.DivergenceL2()
		psi, _, _ := s.StepPP()
		s.StepVU(psi)
		divAfter := s.DivergenceL2()
		if divAfter > 0.6*divBefore && divBefore > 1e-12 {
			panic(fmt.Sprintf("projection did not reduce divergence: %v -> %v", divBefore, divAfter))
		}
	})
}

func TestHydrostaticEquilibriumStaysQuiescent(t *testing.T) {
	// Heavy fluid at the bottom, flat interface, gravity on: the velocity
	// must stay near zero over several steps.
	par.Run(1, func(c *par.Comm) {
		m := uniformMesh(c, 2, 4)
		par2 := DefaultParams()
		par2.Cn = 0.08
		par2.Fr = 1
		s := NewSolver(m, par2, DefaultOptions(1e-3))
		// φ=+1 (heavy) below, φ=-1 above.
		s.SetPhi(func(x, y, z float64) float64 {
			return EquilibriumProfile(0.5-y, par2.Cn)
		})
		s.InitMuFromPhi()
		for i := 0; i < 3; i++ {
			s.Step()
		}
		var vmax float64
		for i := 0; i < m.NumOwned*m.Dim; i++ {
			if a := math.Abs(s.Vel[i]); a > vmax {
				vmax = a
			}
		}
		vmax = m.GlobalMax(vmax)
		if vmax > 0.05 {
			panic(fmt.Sprintf("hydrostatic state generated spurious velocity %v", vmax))
		}
	})
}

// bubbleCenterY returns the φ-weighted height of the light phase.
func bubbleCenterY(s *Solver) float64 {
	m := s.M
	var num, den float64
	for i := 0; i < m.NumOwned; i++ {
		_, y, _ := m.NodeCoord(i)
		w := (1 - s.PhiMu[2*i]) / 2 // 1 in the light phase
		num += w * y
		den += w
	}
	num = m.GlobalSum(num)
	den = m.GlobalSum(den)
	if den == 0 {
		return 0
	}
	return num / den
}

func TestRisingBubble(t *testing.T) {
	// A light bubble under gravity must acquire a net upward velocity
	// (the rising-bubble benchmark of Khanwale et al. scaled to a small
	// 2D grid and a handful of steps).
	par.Run(2, func(c *par.Comm) {
		m := uniformMesh(c, 2, 4)
		par2 := DefaultParams()
		par2.Cn = 0.08
		par2.Fr = 0.1
		par2.RhoMinus = 0.1
		par2.We = 100
		s := NewSolver(m, par2, DefaultOptions(2e-3))
		s.SetPhi(func(x, y, z float64) float64 {
			return EquilibriumProfile(math.Hypot(x-0.5, y-0.35)-0.18, par2.Cn)
		})
		s.InitMuFromPhi()
		for i := 0; i < 5; i++ {
			s.Step()
		}
		// Bubble-indicator-weighted vertical velocity.
		var num, den float64
		for i := 0; i < m.NumOwned; i++ {
			w := (1 - s.PhiMu[2*i]) / 2
			if w > 0.5 {
				num += w * s.Vel[i*2+1]
				den += w
			}
		}
		num = m.GlobalSum(num)
		den = m.GlobalSum(den)
		if c.Rank() == 0 {
			vy := num / den
			if !(vy > 0) {
				panic(fmt.Sprintf("bubble has no upward velocity: %v", vy))
			}
		}
	})
}

func TestLocalCahnFieldUsedPerElement(t *testing.T) {
	// Halving Cn in half the domain must change the interface evolution
	// only there: verify the solver runs and the elemental Cn enters the
	// residual (a uniform-Cn run differs from a local-Cn run).
	run := func(local bool) []float64 {
		var snap []float64
		par.Run(1, func(c *par.Comm) {
			m := uniformMesh(c, 2, 4)
			par2 := DefaultParams()
			par2.Cn = 0.1
			s := NewSolver(m, par2, DefaultOptions(5e-3))
			if local {
				for e := range s.ElemCn {
					ox, _, _ := m.ElemOrigin(e)
					if ox < 0.5 {
						s.ElemCn[e] = 0.05
					}
				}
			}
			s.SetPhi(func(x, y, z float64) float64 {
				return EquilibriumProfile(0.25-math.Hypot(x-0.5, y-0.5), par2.Cn)
			})
			s.InitMuFromPhi()
			s.StepCH(nil)
			snap = append([]float64(nil), s.PhiMu[:2*m.NumOwned]...)
		})
		return snap
	}
	uni := run(false)
	loc := run(true)
	diff := 0.0
	for i := range uni {
		if d := math.Abs(uni[i] - loc[i]); d > diff {
			diff = d
		}
	}
	if diff < 1e-8 {
		t.Fatal("elemental Cn had no effect on the CH solve")
	}
}

func Test3DSingleStep(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		m := uniformMesh(c, 3, 2)
		par2 := DefaultParams()
		par2.Cn = 0.15
		par2.Fr = 1
		s := NewSolver(m, par2, DefaultOptions(2e-3))
		s.SetPhi(func(x, y, z float64) float64 {
			return EquilibriumProfile(0.25-math.Sqrt((x-0.5)*(x-0.5)+(y-0.5)*(y-0.5)+(z-0.5)*(z-0.5)), par2.Cn)
		})
		s.InitMuFromPhi()
		s.Step()
		for i := 0; i < m.NumOwned; i++ {
			if math.IsNaN(s.PhiMu[2*i]) || math.IsNaN(s.Vel[i*3]) {
				panic("NaN after 3D step")
			}
		}
	})
}
