package chns

import (
	"math"
	"testing"

	"proteus/internal/mesh"
	"proteus/internal/mg"
	"proteus/internal/par"
)

// gmgSolver builds a solver on a uniform mesh with the NS/PP stages
// preconditioned as requested and a bubble-like initial state.
func gmgSolver(c *par.Comm, pc string, level int, dt float64) *Solver {
	m := uniformMesh(c, 2, level)
	prm := DefaultParams()
	prm.Cn = 0.06
	prm.Fr = 1
	opt := DefaultOptions(dt)
	opt.PCNS, opt.PCPP = pc, pc
	s := NewSolver(m, prm, opt)
	s.SetPhi(func(x, y, z float64) float64 {
		return EquilibriumProfile(0.2-math.Hypot(x-0.5, y-0.45), prm.Cn)
	})
	s.InitMuFromPhi()
	return s
}

// TestGMGStepParity: swapping the NS/PP preconditioner changes only the
// Krylov path, not the discretization, so with tight linear tolerances
// the stepped fields agree closely between GMG and the ILU(0) default.
func TestGMGStepParity(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		fields := map[string]map[mesh.NodeKey][2]float64{}
		for _, pc := range []string{PCBJacobi, PCGMG} {
			out := map[mesh.NodeKey][2]float64{}
			par.Run(ranks, func(c *par.Comm) {
				s := gmgSolver(c, pc, 4, 5e-4)
				for i := 0; i < 3; i++ {
					if _, err := s.Step(); err != nil {
						panic(err)
					}
				}
				type kv struct {
					K mesh.NodeKey
					V [2]float64
				}
				var local []kv
				m := s.M
				for i := 0; i < m.NumOwned; i++ {
					local = append(local, kv{m.Keys[i], [2]float64{s.PhiMu[2*i], s.Vel[2*i]}})
				}
				all := par.Allgatherv(c, local)
				if c.Rank() == 0 {
					for _, e := range all {
						out[e.K] = e.V
					}
				}
			})
			fields[pc] = out
		}
		base, got := fields[PCBJacobi], fields[PCGMG]
		if len(base) == 0 || len(got) != len(base) {
			t.Fatalf("ranks=%d: node sets differ (%d vs %d)", ranks, len(base), len(got))
		}
		for k, v := range base {
			g := got[k]
			if math.Abs(g[0]-v[0]) > 1e-6 || math.Abs(g[1]-v[1]) > 1e-6 {
				t.Fatalf("ranks=%d node %v: bjacobi %v gmg %v", ranks, k, v, g)
			}
		}
	}
}

// TestGMGHierarchyInvalidation: the shared MG ladder is keyed to the
// mesh epoch. A cold Rebind — onto the same mesh or a different forest —
// must drop it and the stage PCs with it — stale coarse operators must
// never survive a remesh — and the next step must rebuild everything
// against the current mesh.
func TestGMGHierarchyInvalidation(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		s := gmgSolver(c, PCGMG, 4, 5e-4)
		if _, err := s.Step(); err != nil {
			panic(err)
		}
		if s.mgH == nil {
			t.Fatal("after a GMG step the hierarchy must exist")
		}
		g, ok := s.ns.pc.(*mg.PCGMG)
		if !ok {
			t.Fatalf("NS PC is %T, want *mg.PCGMG", s.ns.pc)
		}
		if g.Hierarchy() != s.mgH || s.mgH.Meshes[0] != s.M {
			t.Fatal("stage PC must share the solver hierarchy rooted at the fine mesh")
		}
		prm := s.Par
		// rebindAndStep rebinds cold (state vectors come back zeroed, so φ
		// and μ are re-initialized) and takes one step.
		rebindAndStep := func(m *mesh.Mesh) {
			s.Rebind(m, s.MeshEpoch()+1, nil)
			if s.mgH != nil || s.ns.pc != nil || s.pp.pc != nil {
				t.Fatal("a cold Rebind must drop the hierarchy and the stage PCs")
			}
			s.SetPhi(func(x, y, z float64) float64 {
				return EquilibriumProfile(0.2-math.Hypot(x-0.5, y-0.45), prm.Cn)
			})
			s.InitMuFromPhi()
			if _, err := s.Step(); err != nil {
				panic(err)
			}
		}
		// Epoch bump on the same mesh (the remesh signal).
		rebindAndStep(s.M)
		if s.mgH == nil || s.mgH.Meshes[0] != s.M {
			t.Fatal("the next step must rebuild the ladder from the current mesh")
		}
		old := s.mgH
		// Rebind to a genuinely different forest: same invariant.
		m2 := uniformMesh(c, 2, 3)
		rebindAndStep(m2)
		if s.mgH == nil || s.mgH == old || s.mgH.Meshes[0] != m2 {
			t.Fatal("after Rebind the ladder must be rebuilt from the new mesh")
		}
	})
}

// TestWarmStepZeroAlloc: a warm time step performs no allocation at all —
// with the default ILU(0) stage PCs and, the point of this PR, with the
// full multigrid ladder refreshing and cycling inside NS and PP.
func TestWarmStepZeroAlloc(t *testing.T) {
	for _, pc := range []string{PCBJacobi, PCGMG} {
		par.Run(1, func(c *par.Comm) {
			s := gmgSolver(c, pc, 4, 5e-4)
			for i := 0; i < 3; i++ {
				if _, err := s.Step(); err != nil {
					panic(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := s.Step(); err != nil {
					panic(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("pc=%s: warm Step allocates %v/op, want 0", pc, allocs)
			}
		})
	}
}
