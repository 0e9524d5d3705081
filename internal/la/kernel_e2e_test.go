package la_test

import (
	"testing"

	"proteus/internal/la"
	"proteus/internal/par"
	"proteus/internal/scenario"
)

// bubbleRun is what a short bubble run leaves behind on one rank: the
// per-stage Krylov and Newton iteration totals and the final fields.
type bubbleRun struct {
	its             [5]int
	phiMu, vel, pre []float64
}

func runBubble(ranks, steps int) []bubbleRun {
	sc, _ := scenario.Get("bubble")
	out := make([]bubbleRun, ranks)
	par.Run(ranks, func(c *par.Comm) {
		sim := sc.New(c, scenario.Smoke)
		if err := sim.Run(steps); err != nil {
			panic(err)
		}
		t, s := sim.Timers(), sim.Solver
		out[c.Rank()] = bubbleRun{
			its:   [5]int{t.CH.Iterations, t.NS.Iterations, t.PP.Iterations, t.VU.Iterations, t.CH.Newton},
			phiMu: s.PhiMu, vel: s.Vel, pre: s.P,
		}
	})
	return out
}

// TestUnrolledSpMVChangesNoBitEndToEnd is the end-to-end pin of the
// block-size-specialised SpMV kernels: a bubble smoke run (CH bs=2, NS
// bs=2, PP and VU bs=1, remeshing on the way) takes the same Krylov and
// Newton iterations and ends in the same field bits on 1 and 2 ranks
// whether applySpan dispatches to the unrolled kernels or is forced
// through the run-time-bs loop they replaced.
func TestUnrolledSpMVChangesNoBitEndToEnd(t *testing.T) {
	const steps = 5
	for _, ranks := range []int{1, 2} {
		fast := runBubble(ranks, steps)
		la.SetForceGenericSpan(true)
		generic := runBubble(ranks, steps)
		la.SetForceGenericSpan(false)
		for r := range fast {
			f, g := fast[r], generic[r]
			if f.its != g.its {
				t.Fatalf("ranks=%d rank %d: iteration totals CH/NS/PP/VU/Newton %v vs generic %v", ranks, r, f.its, g.its)
			}
			if f.its[0] == 0 || f.its[2] == 0 {
				t.Fatalf("ranks=%d rank %d: no Krylov iterations recorded: %v", ranks, r, f.its)
			}
			for name, pair := range map[string][2][]float64{"PhiMu": {f.phiMu, g.phiMu}, "Vel": {f.vel, g.vel}, "P": {f.pre, g.pre}} {
				if d := la.BitsDiff(pair[0], pair[1]); d != "" {
					t.Fatalf("ranks=%d rank %d: %s against the generic kernel: %s", ranks, r, name, d)
				}
			}
		}
	}
}
