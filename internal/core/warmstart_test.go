package core

import (
	"fmt"
	"math"
	"testing"

	"proteus/internal/chns"
	"proteus/internal/par"
)

// fullNSRemeshConfig is the full Navier–Stokes block (no prescribed
// velocity) under frequent remeshing: the configuration where post-remesh
// solver behavior — MG refresh, PC carry-over, warm starts — actually
// shows up in every stage.
func fullNSRemeshConfig() Config {
	p := chns.DefaultParams()
	p.Cn = 0.08
	p.Fr = 0.5
	return Config{
		Dim: 2, Params: p, Opt: chns.DefaultOptions(1e-3),
		BulkLevel: 3, InterfaceLevel: 4,
		RemeshEvery: 1,
	}
}

func runFullNS(c *par.Comm, policy remeshPolicy, mutate func(*Config), steps int) *Simulation {
	cfg := fullNSRemeshConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	sim := New(c, cfg, func(x, y, z float64) float64 {
		return chns.EquilibriumProfile(math.Hypot(x-0.5, y-0.4)-0.18, cfg.Params.Cn)
	})
	return runPolicy(sim, policy, steps)
}

// TestGMGIncrementalRemeshBitwise combines the two reuse machineries this
// repo has grown: GMG-preconditioned NS/PP stages under remesh-every-step
// incremental rounds. The delta-aware hierarchy refresh and in-place PC
// rebinds must leave the trajectory bitwise identical to the always-full
// oracle at 1, 2 and 4 ranks — and the carry-over counters
// must show they actually engaged.
func TestGMGIncrementalRemeshBitwise(t *testing.T) {
	gmg := func(cfg *Config) { cfg.Opt.PCNS, cfg.Opt.PCPP = chns.PCGMG, chns.PCGMG }
	for _, p := range []int{1, 2, 4} {
		par.Run(p, func(c *par.Comm) {
			incr := runFullNS(c, remeshMeasured, gmg, 3)
			full := runFullNS(c, remeshAlwaysFull, gmg, 3)
			mustIdenticalRuns(c, incr, full)

			tm := incr.Timers()
			st := tm.RemeshStages
			if st.IncrBuild+st.MigrateBuild == 0 {
				panic(fmt.Sprintf("p=%d: incremental build never engaged: %+v", p, st))
			}
			if st.MGLevelsReused+st.MGLevelsPatched == 0 {
				panic(fmt.Sprintf("p=%d: hierarchy refresh never carried a level: %+v", p, st))
			}
			if st.PostSteps == 0 || st.PostNSIters == 0 || st.PostPPIters == 0 {
				panic(fmt.Sprintf("p=%d: post-remesh iteration telemetry missing: %+v", p, st))
			}
			ft := full.Timers().RemeshStages
			if ft.MGLevelsReused+ft.MGLevelsPatched != 0 {
				panic(fmt.Sprintf("p=%d: from-scratch run still carried MG state: %+v", p, ft))
			}
		})
	}
}

// TestWarmStartsFewerPostRemeshIterations: warm starts seed the PP and VU
// solves from the previous (migrated) solution. The convergence target is
// unchanged — tolerances are relative to the RHS, not the initial guess —
// so the run must stay healthy while the post-remesh Krylov iteration
// count drops (never rises) against the cold-start baseline.
func TestWarmStartsFewerPostRemeshIterations(t *testing.T) {
	for _, p := range []int{1, 2} {
		par.Run(p, func(c *par.Comm) {
			cold := runFullNS(c, remeshMeasured, nil, 4)
			warm := runFullNS(c, remeshMeasured, func(cfg *Config) { cfg.Opt.WarmStarts = true }, 4)

			cs, ws := cold.Timers().RemeshStages, warm.Timers().RemeshStages
			if cs.PostSteps == 0 || ws.PostSteps != cs.PostSteps {
				panic(fmt.Sprintf("p=%d: post-remesh step counts differ or are zero: warm %d cold %d",
					p, ws.PostSteps, cs.PostSteps))
			}
			warmIts := ws.PostPPIters + ws.PostVUIters
			coldIts := cs.PostPPIters + cs.PostVUIters
			if warmIts > coldIts {
				panic(fmt.Sprintf("p=%d: warm starts raised post-remesh PP+VU iterations: %d vs %d", p, warmIts, coldIts))
			}
			if warmIts == coldIts && ws.PostPPIters == cs.PostPPIters && ws.PostVUIters == cs.PostVUIters && p == 1 {
				// The seeding should actually change the Krylov path
				// somewhere; identical per-stage counts on every stage would
				// mean the knob is dead.
				panic(fmt.Sprintf("p=%d: warm starts changed nothing: pp=%d vu=%d", p, ws.PostPPIters, ws.PostVUIters))
			}
			// Same physics to solver tolerance: the converged states agree
			// far tighter than the interface scale.
			cm, wm := cold.Solver.PhiMass(), warm.Solver.PhiMass()
			if rel := math.Abs(wm-cm) / math.Abs(cm); rel > 1e-6 {
				panic(fmt.Sprintf("p=%d: warm-start mass drifted %g from cold baseline", p, rel))
			}
			st := warm.Stats()
			if st.PostRemeshSteps == 0 || st.PostRemeshIters["pp"] <= 0 {
				panic(fmt.Sprintf("p=%d: run stats missing post-remesh telemetry: %+v", p, st.PostRemeshIters))
			}
		})
	}
}
