package core

import (
	"errors"
	"fmt"
	"testing"

	"proteus/internal/chns"
	"proteus/internal/fault"
	"proteus/internal/par"
)

// TestInjectedDivergenceBitwiseEqualsDtSchedule is the recovery layer's
// headline determinism contract: a run that hits one injected NS
// divergence at step 3, rolls back and retries at half dt (relaxing
// back to nominal after 2 clean steps) must end bitwise identical to an
// uninterrupted run driven through the equivalent dt schedule by hand.
// The rollback restores state exactly and the injector perturbs nothing
// but the one convergence verdict, so any drift is a recovery-layer bug.
func TestInjectedDivergenceBitwiseEqualsDtSchedule(t *testing.T) {
	cfg := ckptTestConfig()
	phi0 := ckptTestPhi0(cfg.Params.Cn)
	d := cfg.Opt.Dt
	// The schedule the recovery produces: divergence at step 3 halves dt
	// for the retried step, RelaxAfter=2 doubles it back after steps 3-4.
	schedule := []float64{d, d, d, d / 2, d / 2, d}

	var want, got *globalState
	var st RunStats
	par.Run(2, func(c *par.Comm) {
		sim := New(c, cfg, phi0)
		for step, dt := range schedule {
			sim.SetDt(dt)
			if err := sim.Step(); err != nil {
				panic(fmt.Sprintf("clean reference step %d: %v", step, err))
			}
		}
		if g := gatherState(sim); g != nil {
			want = g
		}
	})
	par.Run(2, func(c *par.Comm) {
		sim := New(c, cfg, phi0)
		sim.Fault = fault.New(1, c.Rank(),
			fault.Fault{Point: fault.KSPDiverge, Step: 3, Stage: "ns"})
		res, err := sim.RunUntil(RunOptions{Steps: len(schedule), MaxRetries: 2, RelaxAfter: 2})
		if err != nil {
			panic(err)
		}
		if res.StepsDone != len(schedule) {
			panic(fmt.Sprintf("recovered run did %d steps, want %d", res.StepsDone, len(schedule)))
		}
		s := sim.Stats()
		if g := gatherState(sim); g != nil {
			got, st = g, s
		}
	})
	if err := sameState("recovered vs dt-schedule", want, got); err != nil {
		t.Fatal(err)
	}
	if st.Retries != 1 || st.CkptFallbacks != 0 || len(st.Recovery) != 1 {
		t.Fatalf("recovery accounting: retries=%d fallbacks=%d events=%d, want 1/0/1",
			st.Retries, st.CkptFallbacks, len(st.Recovery))
	}
	ev := st.Recovery[0]
	if ev.Step != 3 || ev.Stage != "ns" || ev.Kind != chns.DivergeKSP || ev.Dt != d/2 || ev.Retry != 1 {
		t.Fatalf("recovery event %+v, want step 3 ns/ksp at dt %g retry 1", ev, d/2)
	}
}

// TestCheckpointFallbackReplays exhausts the in-memory retry budget with
// a repeating divergence and checks the run falls back to the last
// intact on-disk generation, replays, and still finishes the absolute
// step budget — ending bitwise identical to an undisturbed run (the
// replay starts from a bitwise-exact snapshot at nominal dt and the
// fault is exhausted by then), on 2 ranks, with warm starts off and on.
func TestCheckpointFallbackReplays(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			testCheckpointFallbackReplays(t, warm)
		})
	}
}

func testCheckpointFallbackReplays(t *testing.T, warm bool) {
	cfg := ckptTestConfig()
	cfg.Opt.WarmStarts = warm
	phi0 := ckptTestPhi0(cfg.Params.Cn)
	dir := t.TempDir()
	var want, got *globalState
	var st RunStats
	par.Run(2, func(c *par.Comm) {
		sim := New(c, cfg, phi0)
		if err := sim.Run(6); err != nil {
			panic(err)
		}
		if g := gatherState(sim); g != nil {
			want = g
		}
	})
	par.Run(2, func(c *par.Comm) {
		sim := New(c, cfg, phi0)
		// Two firings: the first attempt of step 3 and its single retry —
		// exhausting MaxRetries=1 and forcing the checkpoint fallback.
		sim.Fault = fault.New(1, c.Rank(),
			fault.Fault{Point: fault.KSPDiverge, Step: 3, Stage: "ns", Count: 2})
		res, err := sim.RunUntil(RunOptions{
			Steps: 6, MaxRetries: 1,
			CkptEvery: 2, CkptBase: dir + "/ck",
		})
		if err != nil {
			panic(err)
		}
		// Steps 0-2 succeed, the fallback rewinds to the step-2 snapshot,
		// and steps 2-5 replay: 7 successful steps for a 6-step budget.
		if res.StepsDone != 7 || sim.StepIndex != 6 {
			panic(fmt.Sprintf("fallback replay did %d steps to index %d, want 7 to 6",
				res.StepsDone, sim.StepIndex))
		}
		s := sim.Stats()
		if g := gatherState(sim); g != nil {
			got, st = g, s
		}
	})
	if err := sameState("fallback replay vs undisturbed", want, got); err != nil {
		t.Fatal(err)
	}
	if st.Retries != 1 || st.CkptFallbacks != 1 || len(st.Recovery) != 2 {
		t.Fatalf("recovery accounting: retries=%d fallbacks=%d events=%d, want 1/1/2",
			st.Retries, st.CkptFallbacks, len(st.Recovery))
	}
	if st.Recovery[1].Kind != "ckpt-fallback" || st.Recovery[1].Step != 3 {
		t.Fatalf("fallback event %+v, want kind ckpt-fallback at step 3", st.Recovery[1])
	}
}

// TestFallbackCountsEachSolveOnce pins the solver-work accounting across a
// checkpoint fallback, at 1 and 2 ranks: with the retry budget exhausted
// by ksp@3/ns/count=2 the run falls back once to the step-2 snapshot, and
// Stats() must still report every stage's solves exactly once — as many as
// the stage asked the fault injector for a KSP verdict (VU gives one
// verdict per step for its dim component solves). The snapshot's
// timers already hold the live solver's work, so taking them back on a
// fallback would count the pre-checkpoint solves twice.
func TestFallbackCountsEachSolveOnce(t *testing.T) {
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			dir := t.TempDir()
			par.Run(p, func(c *par.Comm) {
				cfg := ckptTestConfig()
				sim := New(c, cfg, ckptTestPhi0(cfg.Params.Cn))
				in, err := fault.Parse("ksp@3/ns/count=2", 1, c.Rank())
				if err != nil {
					panic(err)
				}
				sim.Fault = in
				if _, err := sim.RunUntil(RunOptions{Steps: 6, MaxRetries: 1, CkptEvery: 2, CkptBase: dir + "/ck"}); err != nil {
					panic(err)
				}
				st := sim.Stats()
				if st.CkptFallbacks != 1 {
					panic(fmt.Sprintf("p=%d: %d checkpoint fallbacks, want 1", p, st.CkptFallbacks))
				}
				for _, stage := range []string{"ch", "ns", "pp", "vu"} {
					want := in.Verdicts(stage)
					if stage == "vu" {
						want *= cfg.Dim
					}
					if got := st.KrylovIters[stage].Solves; got != want || want == 0 {
						panic(fmt.Sprintf("p=%d rank=%d: Stats() counts %d %s solves, the run made %d", p, c.Rank(), got, stage, want))
					}
				}
			})
		})
	}
}

// TestNaNPokeCaught checks the finite scan at every stage's
// injection point: a NaN poked into the stage output on one rank becomes
// a typed nonfinite divergence of that stage on every rank, the step
// retries cleanly, and the finished fields are finite.
func TestNaNPokeCaught(t *testing.T) {
	cfg := ckptTestConfig()
	phi0 := ckptTestPhi0(cfg.Params.Cn)
	for _, stage := range []string{"ch", "ns", "pp", "vu"} {
		t.Run(stage, func(t *testing.T) {
			par.Run(2, func(c *par.Comm) {
				sim := New(c, cfg, phi0)
				sim.Fault = fault.New(1, c.Rank(),
					fault.Fault{Point: fault.FieldNaN, Step: 2, Stage: stage, Rank: 0})
				res, err := sim.RunUntil(RunOptions{Steps: 4, MaxRetries: 1})
				if err != nil {
					panic(err)
				}
				if res.StepsDone != 4 {
					panic(fmt.Sprintf("did %d steps, want 4", res.StepsDone))
				}
				st := sim.Stats()
				if st.Retries != 1 || len(st.Recovery) != 1 {
					panic(fmt.Sprintf("recovery accounting %+v", st.Recovery))
				}
				if ev := st.Recovery[0]; ev.Step != 2 || ev.Stage != stage || ev.Kind != chns.DivergeNonFinite {
					panic(fmt.Sprintf("event %+v, want step 2 %s/nonfinite", ev, stage))
				}
				for _, f := range [][]float64{sim.Solver.PhiMu, sim.Solver.Vel, sim.Solver.P} {
					for i, v := range f {
						if d := v - v; d != 0 {
							panic(fmt.Sprintf("non-finite value survived recovery at %d", i))
						}
					}
				}
			})
		})
	}
}

// TestRunFailedStructured checks the terminal path: an unrecoverable
// repeating divergence with no checkpoint to fall back to returns
// *ErrRunFailed wrapping the divergence and carrying the history.
func TestRunFailedStructured(t *testing.T) {
	cfg := ckptTestConfig()
	phi0 := ckptTestPhi0(cfg.Params.Cn)
	par.Run(2, func(c *par.Comm) {
		sim := New(c, cfg, phi0)
		sim.Fault = fault.New(1, c.Rank(),
			fault.Fault{Point: fault.KSPDiverge, Step: 1, Stage: "pp", Count: 10})
		_, err := sim.RunUntil(RunOptions{Steps: 4, MaxRetries: 2})
		var rf *ErrRunFailed
		if !errors.As(err, &rf) {
			panic(fmt.Sprintf("got %v, want *ErrRunFailed", err))
		}
		if rf.Step != 1 || len(rf.Recovery) != 2 {
			panic(fmt.Sprintf("ErrRunFailed step %d with %d events, want step 1 with 2", rf.Step, len(rf.Recovery)))
		}
		var div *chns.ErrDiverged
		if !errors.As(err, &div) || div.Stage != chns.StagePP {
			panic(fmt.Sprintf("cause %v, want a PP ErrDiverged", rf.Err))
		}
		// Fail-fast mode: MaxRetries 0 surfaces the raw divergence.
		sim2 := New(c, cfg, phi0)
		sim2.Fault = fault.New(1, c.Rank(),
			fault.Fault{Point: fault.KSPDiverge, Step: 0, Stage: "ch"})
		_, err = sim2.RunUntil(RunOptions{Steps: 2})
		if !errors.As(err, &div) || errors.As(err, &rf) {
			panic(fmt.Sprintf("fail-fast returned %v, want the bare divergence", err))
		}
	})
}

// TestRollbackRestoresPsi: under warm starts ψ is step state — StepPP
// overwrites it before a later stage can fail — so a rolled-back step must
// hand the retry the pre-step ψ, not the failed attempt's. A VU divergence
// injected after PP has run is rolled back and ψ compared bitwise with its
// pre-step copy, on a step that keeps the mesh and on one that remeshes
// first (the rollback then rebuilds the mesh and rebinds cold).
func TestRollbackRestoresPsi(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.Opt.WarmStarts = true
	phi0 := ckptTestPhi0(cfg.Params.Cn)
	for _, p := range []int{1, 2} {
		par.Run(p, func(c *par.Comm) {
			for _, failAt := range []int{1, cfg.RemeshEvery} {
				sim := New(c, cfg, phi0)
				sim.Fault = fault.New(1, c.Rank(),
					fault.Fault{Point: fault.KSPDiverge, Step: failAt, Stage: "vu"})
				if err := sim.Run(failAt); err != nil {
					panic(err)
				}
				var snap stepSnapshot
				sim.saveSnapshot(&snap)
				epoch := sim.MeshEpoch
				want := append([]float64(nil), sim.Solver.PsiState()...)
				nonzero := false
				for _, v := range want {
					nonzero = nonzero || v != 0
				}
				if !nonzero {
					panic("ψ is still zero after the clean steps: the test would prove nothing")
				}
				var div *chns.ErrDiverged
				if err := sim.Step(); !errors.As(err, &div) || div.Stage != chns.StageVU {
					panic(fmt.Sprintf("step %d: want an injected vu divergence, got %v", failAt, err))
				}
				if remeshed := sim.MeshEpoch != epoch; remeshed != (failAt == cfg.RemeshEvery) {
					panic(fmt.Sprintf("p=%d step %d: failed attempt remeshed = %v", p, failAt, remeshed))
				}
				sim.rollback(&snap)
				got := sim.Solver.PsiState()
				if len(got) != len(want) {
					panic(fmt.Sprintf("p=%d step %d: ψ length %d after rollback, want %d", p, failAt, len(got), len(want)))
				}
				for i := range want {
					if got[i] != want[i] {
						panic(fmt.Sprintf("p=%d step %d: ψ[%d] = %v after rollback, want the pre-step %v",
							p, failAt, i, got[i], want[i]))
					}
				}
			}
		})
	}
}
