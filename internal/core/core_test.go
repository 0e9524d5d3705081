package core

import (
	"fmt"
	"math"
	"testing"

	"proteus/internal/chns"
	"proteus/internal/mesh"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

func swirlVel(x, y, z, t float64) (float64, float64, float64) {
	sx := math.Sin(math.Pi * x)
	sy := math.Sin(math.Pi * y)
	return 2 * sx * sx * sy * math.Cos(math.Pi*y), -2 * math.Cos(math.Pi*x) * sx * sy * sy, 0
}

func smallSwirlConfig(localCahn bool) Config {
	p := chns.DefaultParams()
	p.Cn = 0.04
	p.Pe = 500
	return Config{
		Dim: 2, Params: p, Opt: chns.DefaultOptions(2e-3),
		BulkLevel: 3, InterfaceLevel: 5, FineLevel: 6,
		LocalCahn: localCahn, FineCn: 0.02,
		RemeshEvery:   2,
		PrescribedVel: swirlVel,
	}
}

func dropPhi(cn float64) func(x, y, z float64) float64 {
	return func(x, y, z float64) float64 {
		return chns.EquilibriumProfile(math.Hypot(x-0.5, y-0.6)-0.15, cn)
	}
}

func TestSimulationInitialMeshAdapted(t *testing.T) {
	for _, p := range []int{1, 4} {
		par.Run(p, func(c *par.Comm) {
			sim := New(c, smallSwirlConfig(false), dropPhi(0.04))
			h := sim.LevelHistogram()
			if len(h) != 6 {
				panic(fmt.Sprintf("expected finest level 5, histogram %v", h))
			}
			if h[5] == 0 || h[3] == 0 {
				panic(fmt.Sprintf("interface band not refined: %v", h))
			}
			if sim.CountDrops(-0.5) != 1 {
				panic("initial field must be a single drop")
			}
		})
	}
}

func TestSimulationStepAndAdapt(t *testing.T) {
	for _, p := range []int{1, 3} {
		par.Run(p, func(c *par.Comm) {
			sim := New(c, smallSwirlConfig(false), dropPhi(0.04))
			m0 := sim.Solver.PhiMass()
			sim.Run(4) // includes remeshes at steps 2 and 4
			if sim.RemeshCount == 0 {
				panic("expected at least one remesh")
			}
			m1 := sim.Solver.PhiMass()
			if rel := math.Abs(m1-m0) / math.Abs(m0); rel > 5e-3 {
				panic(fmt.Sprintf("p=%d: mass drift %v across remeshes", p, rel))
			}
			// Interface must still be resolved at the interface level.
			h := sim.LevelHistogram()
			if h[len(h)-1] == 0 {
				panic("interface refinement lost after adaptation")
			}
			if sim.CountDrops(-0.5) != 1 {
				panic("drop fragmented unexpectedly")
			}
		})
	}
}

func TestLocalCahnReducesCnOnSmallFeatures(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		cfg := smallSwirlConfig(true)
		cfg.Params.Cn = 0.03
		cfg.Delta = -0.5
		// A drop whose thresholded core spans ~2 cells at the interface
		// level: it survives thresholding but not erosion+dilation.
		phi0 := func(x, y, z float64) float64 {
			return chns.EquilibriumProfile(math.Hypot(x-0.3, y-0.3)-0.08, cfg.Params.Cn)
		}
		sim := New(c, cfg, phi0)
		sim.Adapt()
		fine := 0
		for e := range sim.Solver.ElemCn {
			if sim.Solver.ElemCn[e] < cfg.Params.Cn {
				fine++
			}
		}
		total := int(sim.Mesh.GlobalSum(float64(fine)))
		if total == 0 {
			panic("local Cahn did not mark the small drop")
		}
		// FineLevel elements must exist.
		h := sim.LevelHistogram()
		if len(h) < cfg.FineLevel+1 || h[cfg.FineLevel] == 0 {
			panic(fmt.Sprintf("detected region not refined to FineLevel: %v", h))
		}
	})
}

func TestAdaptCoarsensAfterFeatureLeaves(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		cfg := smallSwirlConfig(false)
		sim := New(c, cfg, dropPhi(0.04))
		n0 := sim.GlobalElems()
		// Replace the field with a pure bulk state: everything should
		// coarsen back toward BulkLevel on the next Adapt.
		for i := 0; i < sim.Mesh.NumLocal; i++ {
			sim.Solver.PhiMu[2*i] = 1
			sim.Solver.PhiMu[2*i+1] = 0
		}
		sim.Adapt()
		n1 := sim.GlobalElems()
		if n1 >= n0 {
			panic(fmt.Sprintf("mesh did not coarsen: %d -> %d elements", n0, n1))
		}
		h := sim.LevelHistogram()
		if len(h) != cfg.BulkLevel+1 {
			panic(fmt.Sprintf("expected pure bulk mesh, histogram %v", h))
		}
	})
}

func TestCountDropsSeparatesComponents(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		cfg := smallSwirlConfig(false)
		two := func(x, y, z float64) float64 {
			d1 := math.Hypot(x-0.25, y-0.25) - 0.1
			d2 := math.Hypot(x-0.75, y-0.75) - 0.1
			return chns.EquilibriumProfile(math.Min(d1, d2), cfg.Params.Cn)
		}
		sim := New(c, cfg, two)
		if n := sim.CountDrops(-0.5); n != 2 {
			panic(fmt.Sprintf("expected 2 drops, got %d", n))
		}
	})
}

func TestFullNSBlockWithRemesh(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		p := chns.DefaultParams()
		p.Cn = 0.08
		p.Fr = 0.5
		cfg := Config{
			Dim: 2, Params: p, Opt: chns.DefaultOptions(1e-3),
			BulkLevel: 3, InterfaceLevel: 4,
			RemeshEvery: 2,
		}
		sim := New(c, cfg, func(x, y, z float64) float64 {
			return chns.EquilibriumProfile(math.Hypot(x-0.5, y-0.4)-0.18, p.Cn)
		})
		sim.Run(3)
		for i := 0; i < sim.Mesh.NumOwned; i++ {
			if math.IsNaN(sim.Solver.PhiMu[2*i]) {
				panic("NaN after NS block with remesh")
			}
		}
		tm := sim.Timers()
		if tm.CH.Total == 0 || tm.NS.Total == 0 || tm.PP.Total == 0 || tm.VU.Total == 0 {
			panic("stage timers not recorded")
		}
	})
}

// TestAdaptPartitionOnlyMigratesExactly: an adaptation round whose global
// forest is unchanged (only the SFC partition moved) must take the exact
// migration path — no point-location interpolation — and hand every rank
// count the settled reference fields bitwise: φ, μ, u, p and, with warm
// starts on, ψ (given a synthetic nonzero value here so its ride shows).
func TestAdaptPartitionOnlyMigratesExactly(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		par.Run(p, func(c *par.Comm) {
			cfg := smallSwirlConfig(false)
			cfg.RemeshEvery = 1 << 30
			cfg.Opt.WarmStarts = true
			sim := New(c, cfg, dropPhi(0.04))
			// Let the forest settle to a detection-consistent state.
			settled := false
			for i := 0; i < 6 && !settled; i++ {
				before := sim.RemeshCount
				sim.Adapt()
				settled = sim.RemeshCount == before
			}
			if !settled {
				panic("forest did not settle under repeated adaptation")
			}
			m, sol := sim.Mesh, sim.Solver
			// Global key -> (phi, mu, vx, vy, p, psi) reference table
			// (identical on every rank count because the settled serial
			// state is the same field sampled at the same keys).
			type kv struct {
				K mesh.NodeKey
				V [6]float64
			}
			local := make([]kv, m.NumOwned)
			for i := 0; i < m.NumOwned; i++ {
				local[i] = kv{m.Keys[i], [6]float64{
					sol.PhiMu[2*i], sol.PhiMu[2*i+1], sol.Vel[2*i], sol.Vel[2*i+1], sol.P[i],
					0.37*sol.PhiMu[2*i] - sol.PhiMu[2*i+1]}}
			}
			all := par.Allgatherv(c, local)
			vals := make(map[mesh.NodeKey][6]float64, len(all))
			for _, e := range all {
				vals[e.K] = e.V
			}
			leaves := par.Allgatherv(c, m.Elems)
			// Rebuild the same state on a deliberately skewed partition of
			// the identical forest.
			n := len(leaves)
			lo, hi := n*c.Rank()*c.Rank()/(p*p), n*(c.Rank()+1)*(c.Rank()+1)/(p*p)
			skew := make([]sfc.Octant, hi-lo)
			copy(skew, leaves[lo:hi])
			m2 := mesh.New(c, cfg.Dim, skew)
			sol2 := chns.NewSolver(m2, sim.Cfg.Params, sim.Cfg.Opt)
			for i := 0; i < m2.NumLocal; i++ {
				v := vals[m2.Keys[i]]
				sol2.PhiMu[2*i], sol2.PhiMu[2*i+1] = v[0], v[1]
				sol2.Vel[2*i], sol2.Vel[2*i+1] = v[2], v[3]
				sol2.P[i] = v[4]
				sol2.PsiState()[i] = v[5]
			}
			sim2 := &Simulation{Comm: c, Cfg: sim.Cfg, Mesh: m2, Solver: sol2}
			sim2.Adapt()
			if p > 1 {
				if sim2.T.RemeshStages.PartitionOnly != 1 || sim2.RemeshCount != 1 {
					panic(fmt.Sprintf("p=%d: expected one partition-only round, got %+v (remeshes %d)",
						p, sim2.T.RemeshStages, sim2.RemeshCount))
				}
			}
			m3, sol3 := sim2.Mesh, sim2.Solver
			for i := 0; i < m3.NumLocal; i++ {
				v, ok := vals[m3.Keys[i]]
				if !ok {
					panic(fmt.Sprintf("p=%d: node %v appeared from nowhere", p, m3.Keys[i]))
				}
				if sol3.PhiMu[2*i] != v[0] || sol3.PhiMu[2*i+1] != v[1] ||
					sol3.Vel[2*i] != v[2] || sol3.Vel[2*i+1] != v[3] || sol3.P[i] != v[4] ||
					sol3.PsiState()[i] != v[5] {
					panic(fmt.Sprintf("p=%d: node %v not bitwise-preserved by partition-only round", p, m3.Keys[i]))
				}
			}
		})
	}
}

// TestSolverRebindPersistsAcrossRemesh: the solver object, its worker
// pool and its per-stage KSP objects must survive adaptation rounds (the
// remesh swaps the mesh under the solver, not the solver itself).
func TestSolverRebindPersistsAcrossRemesh(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		cfg := smallSwirlConfig(false)
		sim := New(c, cfg, dropPhi(0.04))
		before := sim.Solver
		sim.Run(4) // includes remeshes at steps 2 and 4
		if sim.RemeshCount == 0 {
			panic("expected at least one remesh")
		}
		if sim.Solver != before {
			panic("remesh replaced the solver instead of rebinding it")
		}
		if sim.Solver.MeshEpoch() != sim.MeshEpoch {
			panic("solver epoch out of sync after rebind")
		}
		if sim.Solver.M != sim.Mesh {
			panic("solver not bound to the current mesh")
		}
	})
}
