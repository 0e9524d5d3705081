package chns

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"weak"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/mg"
	"proteus/internal/octree"
	"proteus/internal/par"
)

// alive reports, once the caller has dropped its references, whether p is
// still reachable: a weak pointer to it has not been cleared by a
// collection.
func alive[T any](p *T) func() bool {
	w := weak.Make(p)
	return func() bool { return w.Value() != nil }
}

// aliveAny is alive for the stage objects: an operator or one of the PC
// types a stage builds.
func aliveAny(v any) func() bool {
	switch p := v.(type) {
	case *la.BSRMat:
		return alive(p)
	case *la.PCBJacobiILU0:
		return alive(p)
	case *la.PCJacobi:
		return alive(p)
	case *mg.PCGMG:
		return alive(p)
	}
	panic(fmt.Sprintf("no weak pointer for %T", v))
}

// generation holds weak pointers to a solver's mesh and to every stage's
// operator and PC.
type generation struct {
	mesh func() bool
	objs map[string]func() bool // "<stage> mat" / "<stage> pc"
	gmg  map[string]bool        // the keys of GMG PCs
}

func watchGeneration(s *Solver) generation {
	g := generation{mesh: alive(s.M), objs: map[string]func() bool{}, gmg: map[string]bool{}}
	for _, st := range s.stages() {
		if st.mat == nil || st.pc == nil {
			panic(fmt.Sprintf("stage %s has no operator or PC to watch", st.name))
		}
		g.objs[string(st.name)+" mat"] = aliveAny(st.mat)
		g.objs[string(st.name)+" pc"] = aliveAny(st.pc)
		if _, ok := st.pc.(*mg.PCGMG); ok {
			g.gmg[string(st.name)+" pc"] = true
		}
	}
	return g
}

// collected forces collections (on every rank: the ranks share one heap)
// and reports what of g is still reachable, except the GMG PCs and the
// mesh an incremental Rebind keeps for the ladder refresh.
func (g generation) collected(c *par.Comm, keepGMG, keepMesh bool) []string {
	par.Allreduce(c, 0, func(a, b int) int { return a + b })
	runtime.GC()
	runtime.GC()
	par.Allreduce(c, 0, func(a, b int) int { return a + b })
	var live []string
	for name, ok := range g.objs {
		if ok() && !(keepGMG && g.gmg[name]) {
			live = append(live, name)
		}
	}
	if g.mesh() && !keepMesh {
		live = append(live, "mesh")
	}
	return live
}

// worksetSolver is a bubble on a graded mesh with the given NS/PP
// preconditioner, μ set from φ.
func worksetSolver(m *mesh.Mesh, pc string) *Solver {
	opt := DefaultOptions(5e-4)
	opt.PCNS, opt.PCPP = pc, pc
	prm := DefaultParams()
	prm.Cn = 0.06
	s := NewSolver(m, prm, opt)
	initBubble(s)
	return s
}

// initBubble sets φ to a bubble on the solver's mesh and μ from it.
func initBubble(s *Solver) {
	s.SetPhi(func(x, y, z float64) float64 {
		return EquilibriumProfile(0.2-math.Hypot(x-0.4, y-0.55), s.Par.Cn)
	})
	if err := s.InitMuFromPhi(); err != nil {
		panic(err)
	}
}

func mustStep(s *Solver) {
	if _, err := s.Step(); err != nil {
		panic(err)
	}
}

// TestRebindReleasesPreviousGeneration: at 1 and 2 ranks, under
// block-Jacobi and GMG, once a solver has stepped on a mesh and is rebound
// — cold onto a different forest, and incrementally (mesh.Patch or
// mesh.PatchMigrated) — the previous generation's CH, NS, PP and VU
// operators and PCs are unreachable before any step on the new mesh; so
// is the previous mesh, except under GMG after an incremental Rebind,
// whose kept ladder and NS/PP PCs refresh from it. Every stage KSP, the
// CH mass solve and the CH Newton driver's inner KSP run in the solver's
// one Krylov workspace.
func TestRebindReleasesPreviousGeneration(t *testing.T) {
	for _, pc := range []string{PCBJacobi, PCGMG} {
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/p=%d", pc, ranks), func(t *testing.T) {
				par.Run(ranks, func(c *par.Comm) {
					what := fmt.Sprintf("%s p=%d rank %d", pc, ranks, c.Rank())
					s := worksetSolver(gradedMesh(c, 2, 3, 5), pc)
					mustStep(s)
					for name, ws := range s.KrylovWorkspaces() {
						if ws != &s.krylov {
							panic(fmt.Sprintf("%s: the %s KSP solves in %p, not the solver's workspace %p", what, name, ws, &s.krylov))
						}
					}

					// Cold: onto a different forest, as a rollback, a
					// checkpoint fallback or an over-threshold remesh does.
					g := watchGeneration(s)
					mB := gradedMesh(c, 2, 2, 4)
					s.Rebind(mB, s.MeshEpoch()+1, nil)
					if live := g.collected(c, false, false); len(live) > 0 {
						panic(fmt.Sprintf("%s: after a cold Rebind still reachable: %v", what, live))
					}
					initBubble(s)
					mustStep(s)

					// Incremental: a patched forest and its delta.
					g = watchGeneration(s)
					leaves := gradedLeaves(c, 2, 2, 4, 0.3)
					m2, d := mesh.Patch(c, 2, leaves, mB, octree.AddedLeaves(mB.Elems, leaves))
					if m2 == nil {
						m2, _, d = mesh.PatchMigrated(mB, leaves)
					}
					mB = nil
					s.Rebind(m2, s.MeshEpoch()+1, d)
					gmg := pc == PCGMG
					if live := g.collected(c, gmg, gmg); len(live) > 0 {
						panic(fmt.Sprintf("%s: after an incremental Rebind still reachable: %v", what, live))
					}
					initBubble(s)
					mustStep(s)
					for name, ws := range s.KrylovWorkspaces() {
						if ws != &s.krylov {
							panic(fmt.Sprintf("%s: after the rebinds the %s KSP solves in %p, not %p", what, name, ws, &s.krylov))
						}
					}
				})
			})
		}
	}
}
