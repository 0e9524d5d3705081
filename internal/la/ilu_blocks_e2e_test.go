package la_test

import (
	"fmt"
	"runtime"
	"testing"

	"proteus/internal/core"
	"proteus/internal/fault"
	"proteus/internal/la"
	"proteus/internal/par"
	"proteus/internal/scenario"
)

// iluRun is what a short faulted run leaves behind on one rank.
type iluRun struct {
	// its holds the CH BiCGStab, NS, PP and VU Krylov totals, then the CH
	// Newton, Jacobian and chord-step totals.
	its             [7]int
	phiMu, vel, pre []float64
	stats           core.RunStats
	crossedRemesh   bool // the rollback rebuilt the mesh: a generation the run did not keep
}

// runILU0 runs a scenario's smoke preset for 8 steps at one worker per
// rank with an injected CH divergence at faultStep, rolled back and
// retried at half dt: on step 3 the rollback keeps the mesh, on step 2 the
// failed attempt had remeshed, so the rollback rebuilds the snapshot's
// mesh. point makes every ILU(0) factor the scalar expansion of its
// operator (the oracle); only CH's, the one bs = 2 operator, differs.
func runILU0(name string, ranks, faultStep int, point bool) []iluRun {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ranks))
	la.SetILU0PointOracle(point)
	defer la.SetILU0PointOracle(false)
	sc, _ := scenario.Get(name)
	out := make([]iluRun, ranks)
	par.Run(ranks, func(c *par.Comm) {
		sim := sc.New(c, scenario.Smoke)
		sim.Fault = fault.New(1, c.Rank(), fault.Fault{Point: fault.KSPDiverge, Step: faultStep, Stage: "ch"})
		if _, err := sim.RunUntil(core.RunOptions{Steps: 8, MaxRetries: 2, RelaxAfter: 2}); err != nil {
			panic(err)
		}
		st, s := sim.Stats(), sim.Solver
		t := st.Timers
		out[c.Rank()] = iluRun{
			its:   [7]int{t.CH.Iterations, t.NS.Iterations, t.PP.Iterations, t.VU.Iterations, t.CH.Newton, t.CH.Jacobians, t.CH.ChordSteps},
			phiMu: s.PhiMu, vel: s.Vel, pre: s.P, stats: st,
			crossedRemesh: sim.MeshEpoch > uint64(sim.RemeshCount),
		}
	})
	return out
}

// TestILU0BlocksBitwiseEndToEnd: bubble and jet smoke runs that remesh and
// roll one CH step back — on the same mesh, or across a remesh — take the
// same Newton, Jacobian, chord-step and Krylov counts and end in the same
// field bits on 1 and 2 ranks whether the CH ILU(0) runs on the 2×2 node
// blocks or on the point expansion of the operator.
func TestILU0BlocksBitwiseEndToEnd(t *testing.T) {
	for _, name := range []string{"bubble", "jet"} {
		for _, ranks := range []int{1, 2} {
			for _, faultStep := range []int{3, 2} {
				what := fmt.Sprintf("%s ranks=%d faultStep=%d", name, ranks, faultStep)
				blocks, point := runILU0(name, ranks, faultStep, false), runILU0(name, ranks, faultStep, true)
				for r := range blocks {
					a, b := blocks[r], point[r]
					if a.its != b.its || a.its[0] == 0 {
						t.Fatalf("%s rank %d: counts CH/NS/PP/VU Krylov, CH Newton/Jacobians/chord %v vs point ILU(0) %v", what, r, a.its, b.its)
					}
					st := a.stats
					if st.Retries != 1 || st.RemeshCount == 0 || a.crossedRemesh != (faultStep == 2) {
						t.Fatalf("%s rank %d: %d retries, %d remeshes, rollback across a remesh %v: the paths under test did not run",
							what, r, st.Retries, st.RemeshCount, a.crossedRemesh)
					}
					for field, pair := range map[string][2][]float64{"PhiMu": {a.phiMu, b.phiMu}, "Vel": {a.vel, b.vel}, "P": {a.pre, b.pre}} {
						if d := la.BitsDiff(pair[0], pair[1]); d != "" {
							t.Fatalf("%s rank %d: %s with node-block ILU(0) vs point: %s", what, r, field, d)
						}
					}
				}
			}
		}
	}
}
