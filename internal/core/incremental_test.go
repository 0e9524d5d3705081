package core

import (
	"fmt"
	"testing"

	"proteus/internal/par"
)

// runSwirl advances a remesh-every-step swirling-drop run under the given
// remesh policy and returns the simulation for state comparison.
func runSwirl(c *par.Comm, policy remeshPolicy, steps int) *Simulation {
	cfg := smallSwirlConfig(false)
	cfg.RemeshEvery = 1
	sim := New(c, cfg, dropPhi(cfg.Params.Cn))
	return runPolicy(sim, policy, steps)
}

// runPolicy runs sim for steps under policy and checks the bookkeeping
// every run owes: each from-scratch build is booked under exactly one of
// the two reasons the code can select it for, and the always-full oracle
// never touched an incremental route.
func runPolicy(sim *Simulation, policy remeshPolicy, steps int) *Simulation {
	sim.policy = policy
	if err := sim.Run(steps); err != nil {
		panic(fmt.Sprintf("rank %d: run failed: %v", sim.Comm.Rank(), err))
	}
	st := sim.T.RemeshStages
	if st.FullBuild != st.FullPartitionOnly+st.FullDirtyFrac {
		panic(fmt.Sprintf("full-build reasons do not sum to FullBuild: %+v", st))
	}
	if st.IncrBuild+st.MigrateBuild+st.FullBuild != sim.RemeshCount {
		panic(fmt.Sprintf("build routes do not sum to %d remeshes: %+v", sim.RemeshCount, st))
	}
	if policy == remeshAlwaysFull && st.IncrBalance+st.IncrBuild+st.MigrateBuild != 0 {
		panic(fmt.Sprintf("the always-full oracle took an incremental route: %+v", st))
	}
	return sim
}

// mustIdenticalRuns asserts two simulations ended in bitwise-identical
// state on this rank: same local forest, same node set, same solution
// values to the last bit.
func mustIdenticalRuns(c *par.Comm, a, b *Simulation) {
	r := c.Rank()
	if a.StepIndex != b.StepIndex || a.Time != b.Time || a.RemeshCount != b.RemeshCount {
		panic(fmt.Sprintf("rank %d: trajectory diverged: step %d/%d t %v/%v remesh %d/%d",
			r, a.StepIndex, b.StepIndex, a.Time, b.Time, a.RemeshCount, b.RemeshCount))
	}
	if len(a.Mesh.Elems) != len(b.Mesh.Elems) {
		panic(fmt.Sprintf("rank %d: local forest size %d vs %d", r, len(a.Mesh.Elems), len(b.Mesh.Elems)))
	}
	for i := range a.Mesh.Elems {
		if !a.Mesh.Elems[i].EqualKey(b.Mesh.Elems[i]) {
			panic(fmt.Sprintf("rank %d: elem %d differs", r, i))
		}
	}
	if a.Mesh.NumOwned != b.Mesh.NumOwned || a.Mesh.NumLocal != b.Mesh.NumLocal {
		panic(fmt.Sprintf("rank %d: node counts %d/%d vs %d/%d",
			r, a.Mesh.NumOwned, a.Mesh.NumLocal, b.Mesh.NumOwned, b.Mesh.NumLocal))
	}
	for i := 0; i < a.Mesh.NumLocal; i++ {
		if a.Mesh.Keys[i] != b.Mesh.Keys[i] {
			panic(fmt.Sprintf("rank %d: node key %d differs", r, i))
		}
	}
	cmp := func(name string, x, y []float64) {
		if len(x) != len(y) {
			panic(fmt.Sprintf("rank %d: %s length %d vs %d", r, name, len(x), len(y)))
		}
		for i := range x {
			if x[i] != y[i] {
				panic(fmt.Sprintf("rank %d: %s[%d] = %v vs %v (diff %g)", r, name, i, x[i], y[i], x[i]-y[i]))
			}
		}
	}
	cmp("PhiMu", a.Solver.PhiMu, b.Solver.PhiMu)
	cmp("Vel", a.Solver.Vel, b.Solver.Vel)
	cmp("P", a.Solver.P, b.Solver.P)
	cmp("Psi", a.Solver.PsiState(), b.Solver.PsiState())
	cmp("ElemCn", a.Solver.ElemCn, b.Solver.ElemCn)
}

// TestIncrementalRemeshBitwiseEquivalence is the remesh's headline
// invariant end to end: a remesh-every-step run on the routes production
// selects (ripple balance, mesh patch or migrate-then-patch, plan repair)
// must be bitwise identical to the always-full oracle at every rank count
// — same forests, same node numbering, same
// solution bits.
func TestIncrementalRemeshBitwiseEquivalence(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		par.Run(p, func(c *par.Comm) {
			incr := runSwirl(c, remeshMeasured, 4)
			full := runSwirl(c, remeshAlwaysFull, 4)
			mustIdenticalRuns(c, incr, full)

			st := incr.T.RemeshStages
			if st.IncrBalance == 0 {
				panic(fmt.Sprintf("p=%d: incremental balance never engaged: %+v", p, st))
			}
			if st.DirtyOctants == 0 || st.TotalOctants == 0 {
				panic(fmt.Sprintf("p=%d: dirty-fraction telemetry not recorded: %+v", p, st))
			}
			if st.IncrBuild+st.MigrateBuild == 0 {
				// Serial splitters are trivially stable, so the mesh patch
				// must engage; at p > 1 a shifted SFC partition goes through
				// migrate-then-patch instead of a from-scratch build.
				panic(fmt.Sprintf("p=%d: incremental build never engaged: %+v", p, st))
			}
			// A forced over-threshold round is booked as what it is.
			fst := full.T.RemeshStages
			if fst.FullBalance == 0 || fst.FullDirtyFrac == 0 {
				panic(fmt.Sprintf("p=%d: forced over-threshold rounds not booked under FullDirtyFrac: %+v", p, fst))
			}
		})
	}
}

// TestWarmStartPsiRidesEveryRoute pins ψ's transfer to the oracle: with
// warm starts on, the pressure increment is a fourth nodal field, so its
// ride through patch and migrate-then-patch rounds must leave it — and
// everything seeded from it — bitwise what the from-scratch route leaves.
// (Partition-only rounds run the same code under either policy; ψ's exact
// migration there is pinned by TestAdaptPartitionOnlyMigratesExactly.) The
// drop falls fast enough that most rounds change the forest.
func TestWarmStartPsiRidesEveryRoute(t *testing.T) {
	warm := func(cfg *Config) {
		cfg.Opt.WarmStarts = true
		cfg.Opt.Dt = 5e-3
		cfg.Params.Fr = 0.05
		cfg.InterfaceLevel = 5
	}
	for _, p := range []int{1, 2, 4} {
		par.Run(p, func(c *par.Comm) {
			incr := runFullNS(c, remeshMeasured, warm, 10)
			full := runFullNS(c, remeshAlwaysFull, warm, 10)
			if incr.Solver.PsiState() == nil {
				panic("warm-started run holds no ψ")
			}
			mustIdenticalRuns(c, incr, full)
			st := incr.T.RemeshStages
			if st.IncrBuild+st.MigrateBuild < 2 || (p == 1 && st.IncrBuild == 0) || (p > 1 && st.MigrateBuild == 0) {
				panic(fmt.Sprintf("p=%d: ψ rode too few incremental rounds: %+v", p, st))
			}
		})
	}
}
