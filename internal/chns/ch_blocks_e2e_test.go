package chns_test

import (
	"fmt"
	"testing"

	"proteus/internal/chns"
	"proteus/internal/core"
	"proteus/internal/fault"
	"proteus/internal/par"
	"proteus/internal/scenario"
)

// blockRun is what a short bubble run leaves behind on one rank.
type blockRun struct {
	its             [5]int // CH/NS/PP/VU Krylov totals, CH Newton total
	phiMu, vel, pre []float64
	stats           core.RunStats
	crossedRemesh   bool // the rollback rebuilt the mesh: a generation the run did not keep
}

// runBubbleBlocks runs the bubble smoke case (the remesh before step 2
// changes the mesh: a Solver.Rebind with the mesh delta) for 8 steps with an
// injected CH divergence at faultStep, rolled back and retried at half dt:
// on step 3 the rollback keeps the mesh, on step 2 the failed attempt had
// remeshed, so the rollback rebuilds the snapshot's mesh and rebinds cold
// (Rebind with no delta) and the retry remeshes again before its CH solve —
// CH solves on a cold-rebound solver are TestCHBlockStoreBitwiseAfterColdRebind's.
// refill forces every CH sweep to integrate its blocks afresh.
func runBubbleBlocks(ranks, faultStep int, refill bool) []blockRun {
	sc, _ := scenario.Get("bubble")
	out := make([]blockRun, ranks)
	par.Run(ranks, func(c *par.Comm) {
		sim := sc.New(c, scenario.Smoke)
		sim.Solver.SetCHRefill(refill)
		sim.Fault = fault.New(1, c.Rank(), fault.Fault{Point: fault.KSPDiverge, Step: faultStep, Stage: "ch"})
		if _, err := sim.RunUntil(core.RunOptions{Steps: 8, MaxRetries: 2, RelaxAfter: 2}); err != nil {
			panic(err)
		}
		st, s := sim.Stats(), sim.Solver
		t := st.Timers
		out[c.Rank()] = blockRun{
			its:   [5]int{t.CH.Iterations, t.NS.Iterations, t.PP.Iterations, t.VU.Iterations, t.CH.Newton},
			phiMu: s.PhiMu, vel: s.Vel, pre: s.P, stats: st,
			crossedRemesh: sim.MeshEpoch > uint64(sim.RemeshCount),
		}
	})
	return out
}

// TestCHBlockStoreBitwiseEndToEnd: a bubble smoke run that remeshes and
// rolls one step back to retry it at half dt — on the same mesh, or across
// a remesh, which adds a cold rebind to the patched ones — takes the same
// Krylov and Newton iterations and ends in the same field bits on 1 and 2
// ranks whether the CH sweeps share their element blocks through the store
// or integrate every block in every sweep.
func TestCHBlockStoreBitwiseEndToEnd(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		for _, faultStep := range []int{3, 2} {
			shared := runBubbleBlocks(ranks, faultStep, false)
			refilled := runBubbleBlocks(ranks, faultStep, true)
			for r := range shared {
				what := fmt.Sprintf("ranks=%d faultStep=%d rank %d", ranks, faultStep, r)
				a, b := shared[r], refilled[r]
				if a.its != b.its || a.its[4] == 0 {
					t.Fatalf("%s: iteration totals CH/NS/PP/VU/Newton %v vs refilled %v", what, a.its, b.its)
				}
				st := a.stats
				patched := st.IncrBuildRounds + st.MigrateBuildRounds
				if st.Retries != 1 || patched == 0 || a.crossedRemesh != (faultStep == 2) {
					t.Fatalf("%s: %d retries, %d patched mesh builds, rollback across a remesh %v: the paths under test did not run", what, st.Retries, patched, a.crossedRemesh)
				}
				if st.CHBlockReuses == 0 || b.stats.CHBlockReuses != 0 {
					t.Fatalf("%s: %d reuses with the store, %d when refilling", what, st.CHBlockReuses, b.stats.CHBlockReuses)
				}
				for name, pair := range map[string][2][]float64{"PhiMu": {a.phiMu, b.phiMu}, "Vel": {a.vel, b.vel}, "P": {a.pre, b.pre}} {
					if d := chns.BitsDiff(pair[0], pair[1]); d != "" {
						t.Fatalf("%s: %s with the store vs refilled: %s", what, name, d)
					}
				}
			}
		}
	}
}

// TestCHBlockFillsMatchNewton: on the bubble smoke preset every step's CH
// solve integrates K_m(φ) in (Newton iterations + 1) sweeps — one per
// iterate; the line search rejects no trial here, which would add one fill
// each — and reads it back in as many sweeps as it built Jacobians, which
// is (Newton iterations − chord steps): a chord step has no Jacobian sweep
// to share its residual's blocks with.
func TestCHBlockFillsMatchNewton(t *testing.T) {
	sc, _ := scenario.Get("bubble")
	par.Run(2, func(c *par.Comm) {
		sim := sc.New(c, scenario.Smoke)
		prev := sim.Timers().CH
		chords := 0
		for step := 0; step < 6; step++ {
			if err := sim.Step(); err != nil {
				panic(err)
			}
			cur := sim.Timers().CH
			its, jacs, chord := cur.Newton-prev.Newton, cur.Jacobians-prev.Jacobians, cur.ChordSteps-prev.ChordSteps
			fills, reuses := cur.BlockFills-prev.BlockFills, cur.BlockReuses-prev.BlockReuses
			if its == 0 || fills != its+1 || reuses != jacs || jacs != its-chord {
				panic(fmt.Sprintf("step %d rank %d: %d Newton iterations, %d Jacobians, %d chord steps, %d fills, %d reuses", step, c.Rank(), its, jacs, chord, fills, reuses))
			}
			chords += chord
			prev = cur
		}
		if chords == 0 {
			panic("no chord step in 6 steps: the identity was only checked where it is the old one")
		}
	})
}
