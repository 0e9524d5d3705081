package chns_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"proteus/internal/core"
	"proteus/internal/fault"
	"proteus/internal/par"
	"proteus/internal/scenario"
)

// chProbes is what probing a run's CH solves leaves behind on one rank;
// index 0 is the production driver, index 1 its exact-solve oracle.
type chProbes struct {
	newton  [2][]int   // Newton iterations per probed step
	krylov  [2]int     // BiCGStab iterations over all probes
	chords  [2]int     // chord steps over all probes
	maxDiff [2]float64 // largest |φ − oracle's φ| and |μ − oracle's μ| over all probes
	stats   core.RunStats
}

// probeCH runs a scenario's smoke preset for 8 steps through RunUntil —
// both cases remesh on the way (a Solver.Rebind with the mesh delta) — with,
// for faultStep ≥ 0, an injected CH divergence at that step, rolled back and
// retried at half dt. After every completed step it solves the next step's
// CH system twice from the same state, with the production driver and with
// its oracle, and puts the state back: the two solves differ in nothing but
// the driver, and whatever the previous one left in it. (Whole runs are not
// compared: a 1e-11 difference in φ can flip a PP iteration count, and the
// pressure then differs at the level of PP's own 1e-8 tolerance.)
func probeCH(name string, ranks, faultStep int) []chProbes {
	sc, _ := scenario.Get(name)
	out := make([]chProbes, ranks)
	par.Run(ranks, func(c *par.Comm) {
		sim := sc.New(c, scenario.Smoke)
		if faultStep >= 0 {
			sim.Fault = fault.New(1, c.Rank(), fault.Fault{Point: fault.KSPDiverge, Step: faultStep, Stage: "ch"})
		}
		run := &out[c.Rank()]
		_, err := sim.RunUntil(core.RunOptions{Steps: 8, MaxRetries: 2, RelaxAfter: 2, OnStep: func(sim *core.Simulation) {
			s := sim.Solver
			inj := s.Fault
			s.Fault = nil // a probe must not use up the scheduled divergence
			start := slices.Clone(s.PhiMu)
			var sol [2][]float64
			for k, exact := range []bool{false, true} {
				s.SetCHNewtonExact(exact)
				before := s.T.CH
				if _, err := s.StepCH(nil); err != nil {
					panic(err)
				}
				run.newton[k] = append(run.newton[k], s.T.CH.Newton-before.Newton)
				run.krylov[k] += s.T.CH.Iterations - before.Iterations
				run.chords[k] += s.T.CH.ChordSteps - before.ChordSteps
				sol[k] = slices.Clone(s.PhiMu)
				copy(s.PhiMu, start)
			}
			s.SetCHNewtonExact(false)
			s.Fault = inj
			for i, v := range sol[0] {
				run.maxDiff[i%2] = math.Max(run.maxDiff[i%2], math.Abs(v-sol[1][i]))
			}
		}})
		if err != nil {
			panic(err)
		}
		run.stats = sim.Stats()
	})
	return out
}

// TestCHInexactNewtonMatchesExactOracle: on bubble (one step rolled back and
// retried at half dt) and jet smoke runs on 1 and 2 ranks, remeshing
// incrementally on the way, every CH solve with the forcing terms and the
// chord step takes the exact-solve oracle's Newton iterations and lands
// within 1e-9 of its φ and 1e-8 of its μ, for at most three quarters of its
// BiCGStab iterations. (Measured 2e-11 and 1.3e-9: a solve that stops just
// under ‖F‖ = 1e-10 and one that overshoots it differ by that residual
// through jet's h³-scaled mass matrix, and μ takes most of it.) Bubble's
// 3-iteration solves end on a chord step; jet's 2-iteration ones never meet
// the predicate, so there only the forcing acts.
func TestCHInexactNewtonMatchesExactOracle(t *testing.T) {
	for _, tc := range []struct {
		name      string
		faultStep int
		chords    bool
	}{{"bubble", 3, true}, {"jet", -1, false}} {
		for _, ranks := range []int{1, 2} {
			for r, p := range probeCH(tc.name, ranks, tc.faultStep) {
				what := fmt.Sprintf("%s ranks=%d rank %d", tc.name, ranks, r)
				st := p.stats
				wantRetries := 0
				if tc.faultStep >= 0 {
					wantRetries = 1
				}
				if st.Retries != wantRetries || st.IncrBuildRounds+st.MigrateBuildRounds == 0 || (p.chords[0] > 0) != tc.chords || p.chords[1] != 0 {
					t.Fatalf("%s: %d retries, %d patched mesh builds, %d chord steps (oracle %d): the paths under test did not run",
						what, st.Retries, st.IncrBuildRounds+st.MigrateBuildRounds, p.chords[0], p.chords[1])
				}
				if !slices.Equal(p.newton[0], p.newton[1]) {
					t.Fatalf("%s: Newton iterations per step %v, exact oracle %v", what, p.newton[0], p.newton[1])
				}
				if !(p.maxDiff[0] <= 1e-9 && p.maxDiff[1] <= 1e-8) {
					t.Fatalf("%s: φ, μ differ from the oracle's by up to %g", what, p.maxDiff)
				}
				if 4*p.krylov[0] > 3*p.krylov[1] {
					t.Fatalf("%s: %d CH BiCGStab iterations, exact oracle %d: more than 0.75×", what, p.krylov[0], p.krylov[1])
				}
			}
		}
	}
}
