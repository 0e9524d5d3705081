package chns_test

import (
	"fmt"
	"runtime"
	"testing"

	"proteus/internal/chns"
	"proteus/internal/core"
	"proteus/internal/fault"
	"proteus/internal/par"
	"proteus/internal/scenario"
)

// nsRun is what a short faulted run leaves behind on one rank.
type nsRun struct {
	its             [5]int // CH/NS/PP/VU Krylov totals, CH Newton total
	phiMu, vel, pre []float64
	stats           core.RunStats
	crossedRemesh   bool // the rollback rebuilt the mesh: a generation the run did not keep
}

// runNSPC runs a scenario's smoke preset for 8 steps at w workers per rank
// with the NS and PP stages on preconditioner pc and an injected NS
// divergence at faultStep, rolled back and retried at half dt: on step 3
// the rollback keeps the mesh, on step 2 the failed attempt had remeshed,
// so the rollback rebuilds the snapshot's mesh. Both cases remesh on the
// way, so the NS PC is built cold, refreshed, and re-keyed across
// incremental rebinds. expanded makes the NS stage store its matrix as the
// expansion A ⊗ I_dim, so its ILU(0)s factor every entry (the oracle).
func runNSPC(name, pc string, ranks, w, faultStep int, expanded bool) []nsRun {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ranks * w))
	sc, _ := scenario.Get(name)
	spec := sc.Build(scenario.Smoke)
	spec.Config.Opt.PCNS, spec.Config.Opt.PCPP = pc, pc
	out := make([]nsRun, ranks)
	par.Run(ranks, func(c *par.Comm) {
		sim := sc.NewFromSpec(c, scenario.Smoke, spec)
		sim.Solver.SetNSExpandedPC(expanded)
		sim.Fault = fault.New(1, c.Rank(), fault.Fault{Point: fault.KSPDiverge, Step: faultStep, Stage: "ns"})
		if _, err := sim.RunUntil(core.RunOptions{Steps: 8, MaxRetries: 2, RelaxAfter: 2}); err != nil {
			panic(err)
		}
		st, s := sim.Stats(), sim.Solver
		t := st.Timers
		out[c.Rank()] = nsRun{
			its:   [5]int{t.CH.Iterations, t.NS.Iterations, t.PP.Iterations, t.VU.Iterations, t.CH.Newton},
			phiMu: s.PhiMu, vel: s.Vel, pre: s.P, stats: st,
			crossedRemesh: sim.MeshEpoch > uint64(sim.RemeshCount),
		}
	})
	return out
}

// TestNSKronPCBitwiseEndToEnd: bubble and jet smoke runs that remesh and
// roll one NS step back — on the same mesh, or across a remesh — take the
// same iterations and end in the same field bits on 1 and 2 ranks at 1 and
// 2 workers per rank, whether the NS stage stores the scalar momentum
// operator A and applies it, and its ILU(0), to every velocity component
// at once, or stores the expansion A ⊗ I_dim and factors all of it. Under
// block-Jacobi that ILU(0) is the stage PC; under GMG it is the fine-level
// smoother, and the coarse levels (scalar either way) are pinned by mg's
// TestVCycleInterleavedMatchesPerComponent.
func TestNSKronPCBitwiseEndToEnd(t *testing.T) {
	for _, pc := range []string{chns.PCBJacobi, chns.PCGMG} {
		for _, name := range []string{"bubble", "jet"} {
			for _, ranks := range []int{1, 2} {
				for _, w := range []int{1, 2} {
					for _, faultStep := range []int{3, 2} {
						what := fmt.Sprintf("%s %s ranks=%d workers=%d faultStep=%d", pc, name, ranks, w, faultStep)
						compareNSRuns(t, what, pc, runNSPC(name, pc, ranks, w, faultStep, false), runNSPC(name, pc, ranks, w, faultStep, true), faultStep)
					}
				}
			}
		}
	}
}

// compareNSRuns fails unless the scalar-operator runs kron and the
// expanded ones full agree rank by rank in counts and field bits, and the
// paths under test — a retry, a patched mesh build, a rollback across a
// remesh exactly when faultStep is 2, coarse levels under GMG — ran.
func compareNSRuns(t *testing.T, what, pc string, kron, full []nsRun, faultStep int) {
	t.Helper()
	for r := range kron {
		a, b := kron[r], full[r]
		if a.its != b.its || a.its[1] == 0 {
			t.Fatalf("%s rank %d: iteration totals CH/NS/PP/VU/Newton %v vs expanded %v", what, r, a.its, b.its)
		}
		st := a.stats
		patched := st.IncrBuildRounds + st.MigrateBuildRounds
		levels := st.Timers.NS.PCSetupLevels > 0
		if st.Retries != 1 || patched == 0 || a.crossedRemesh != (faultStep == 2) || levels != (pc == chns.PCGMG) {
			t.Fatalf("%s rank %d: %d retries, %d patched mesh builds, rollback across a remesh %v, coarse-level assembly %v: the paths under test did not run",
				what, r, st.Retries, patched, a.crossedRemesh, st.Timers.NS.PCSetupLevels)
		}
		for field, pair := range map[string][2][]float64{"PhiMu": {a.phiMu, b.phiMu}, "Vel": {a.vel, b.vel}, "P": {a.pre, b.pre}} {
			if d := chns.BitsDiff(pair[0], pair[1]); d != "" {
				t.Fatalf("%s rank %d: %s with the scalar operator vs expanded: %s", what, r, field, d)
			}
		}
	}
}
