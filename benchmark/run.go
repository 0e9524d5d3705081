package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"proteus/internal/chns"
	"proteus/internal/core"
	"proteus/internal/par"
)

// runSpec names one run: a workload, the seed its inputs are generated
// from, the run length, and whether it is the traced run.
type runSpec struct {
	wl      *workload
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks the run to the scenario's smoke levels, a 1-step
	// warm-up, 3 measured steps and short probes: the path the package's
	// tests drive.
	smoke bool
}

func (rs runSpec) warmup() int {
	if rs.smoke {
		return 1
	}
	return rs.wl.Warmup
}

func (rs runSpec) steps() int {
	if rs.smoke {
		return 3
	}
	return rs.wl.stepsFor(rs.seconds)
}

// runResult is one run's outcome; the first four fields are the result
// line the benchmark contract fixes.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
	refErr   float64
	end      fingerprint
	its      stageIts
}

// maxRetries is the CLI's production default (-max-retries 3), including
// the per-step rollback snapshot it implies.
const maxRetries = 3

// setupRepeats is how many times an untraced run sets up; setup_s is
// their median and the last one's simulation is the one measured.
const setupRepeats = 3

// setUp builds the workload's simulation and runs the warm-up steps, which
// hold the first cold step (sparsity, assembly plans, preconditioners, the
// multigrid ladder) and the first remesh. step advances one time block.
// Collective.
func setUp(c *par.Comm, rs runSpec, step func(*core.Simulation) error) (*core.Simulation, error) {
	sc := mustCase(rs.wl.Case)
	sim := sc.NewFromSpec(c, preset(rs.smoke), rs.wl.spec(newJitter(rs.seed), rs.smoke))
	for i := 0; i < rs.warmup(); i++ {
		if err := step(sim); err != nil {
			return sim, fmt.Errorf("warm-up step %d: %w", i, err)
		}
	}
	return sim, nil
}

// production advances n steps the way cmd/proteus does.
func production(n int, onStep func(*core.Simulation)) func(*core.Simulation) error {
	return func(s *core.Simulation) error {
		_, err := s.RunUntil(core.RunOptions{Steps: n, MaxRetries: maxRetries, OnStep: onStep})
		return err
	}
}

// stepClock times steps on rank 0 between barriers and adds up the mesh
// DOFs each step advanced.
type stepClock struct {
	c        *par.Comm
	prev     time.Time
	walls    []float64
	dofSteps float64
}

func startClock(c *par.Comm) *stepClock {
	c.Barrier()
	return &stepClock{c: c, prev: time.Now()}
}

func (k *stepClock) tick(s *core.Simulation) {
	k.c.Barrier()
	now := time.Now()
	k.walls = append(k.walls, now.Sub(k.prev).Seconds())
	k.dofSteps += float64(s.Mesh.NumGlobal)
	k.prev = now
}

// reset restarts the current step's clock after untimed work between steps.
func (k *stepClock) reset() {
	k.c.Barrier()
	k.prev = time.Now()
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// settle collects the garbage set-up left behind while every rank waits:
// otherwise that collection falls on the first measured steps, at a
// moment the heap's history decides.
func settle(c *par.Comm) {
	c.Barrier()
	if c.Rank() == 0 {
		runtime.GC()
	}
	c.Barrier()
}

// memStats reads the runtime's statistics on rank 0 while every rank
// waits, so no rank allocates across the reading.
func memStats(c *par.Comm) runtime.MemStats {
	var ms runtime.MemStats
	c.Barrier()
	if c.Rank() == 0 {
		runtime.ReadMemStats(&ms)
	}
	c.Barrier()
	return ms
}

// timedSetUp sets up once on the production path and returns the wall-clock
// from entry to the barrier after the last warm-up step.
func timedSetUp(c *par.Comm, rs runSpec) (*core.Simulation, float64, error) {
	t0 := time.Now()
	sim, err := setUp(c, rs, production(1, nil))
	c.Barrier()
	return sim, time.Since(t0).Seconds(), err
}

// runUntraced sets up setupRepeats times, measures the last set-up's
// simulation over the step count through Simulation.RunUntil, and checks
// the outcome. It reports the end-to-end metrics.
func runUntraced(rs runSpec, ref reference) runResult {
	var setups []float64
	for k := 1; k < setupRepeats; k++ {
		par.Run(rs.wl.Ranks, func(c *par.Comm) {
			sim, took, _ := timedSetUp(c, rs)
			if c.Rank() == 0 {
				setups = append(setups, took)
			}
			sim.Solver.Close()
		})
		// Collect the discarded simulation now, so that when it is
		// collected does not move the peak resident set from run to run.
		runtime.GC()
	}
	n := rs.steps()
	res := runResult{Attempted: n}
	par.Run(rs.wl.Ranks, func(c *par.Comm) {
		sim, took, err := timedSetUp(c, rs)
		if c.Rank() == 0 {
			setups = append(setups, took)
		}
		defer sim.Solver.Close()
		var problems []string
		if err != nil {
			problems = append(problems, err.Error())
		}
		start, _ := takeFingerprint(sim)
		settle(c)
		clock := startClock(c)
		if err == nil {
			if err = production(n, clock.tick)(sim); err != nil {
				problems = append(problems, err.Error())
			}
		}
		end, finite := takeFingerprint(sim)
		validate := mustCase(rs.wl.Case).Validate(sim)
		if c.Rank() != 0 {
			return
		}
		rfp, hasRef := ref.lookup(rs.wl.Name, rs.seed)
		more, refErr := checkRun(start, end, finite, validate, rfp, hasRef && !rs.smoke)
		res.problems = append(problems, more...)
		res.refErr, res.end, res.its = refErr, end, itsOf(sim.Timers())
		res.Failed = sim.Retries + sim.CkptFallbacks + n - len(clock.walls)
		runS := sum(clock.walls)
		res.Metrics = metricSet{
			"setup_s":        median(setups),
			"run_s":          runS,
			"step_p50_s":     median(clock.walls),
			"step_p80_s":     percentile(clock.walls, 80),
			"dofsteps_per_s": clock.dofSteps / runS,
			"mem_peak_mb":    peakRSSMB(),
		}.report(endToEnd)
	})
	res.Correct = len(res.problems) == 0 && res.Failed == 0
	return res
}

// controlRun is the untraced half of a traced run: the same set-up and
// the first m measured steps through Simulation.RunUntil, so the traced
// driver has step times, iteration totals and a fingerprint to be compared
// with at the same step.
type controlRun struct {
	walls []float64
	its   stageIts
	fp    fingerprint
	err   error
}

func runControl(rs runSpec, m int) controlRun {
	var ctl controlRun
	par.Run(rs.wl.Ranks, func(c *par.Comm) {
		sim, err := setUp(c, rs, production(1, nil))
		defer sim.Solver.Close()
		settle(c)
		clock := startClock(c)
		if err == nil {
			err = production(m, clock.tick)(sim)
		}
		fp, _ := takeFingerprint(sim)
		if c.Rank() == 0 {
			ctl = controlRun{walls: clock.walls, its: itsOf(sim.Timers()), fp: fp, err: err}
		}
	})
	return ctl
}

// runTraced drives the same steps through tracedStep with a span around
// every call into a layer, checks that it reproduces the untraced control
// exactly, then runs the layer probes on the end state. It reports the
// per-layer metrics and writes the spans to benchmark/out.
func runTraced(rs runSpec, ref reference) (runResult, error) {
	n := rs.steps()
	m := max(n/4, 1)
	ctl := runControl(rs, m)
	res := runResult{Attempted: n}
	if ctl.err != nil {
		res.problems = append(res.problems, "untraced control: "+ctl.err.Error())
	}
	epoch := time.Now()
	allSpans := make([][]span, rs.wl.Ranks)
	par.Run(rs.wl.Ranks, func(c *par.Comm) {
		tr := newTracer(c.Rank(), epoch)
		defer func() { allSpans[c.Rank()] = tr.spans }()
		var out stepOutcome
		traced := func(s *core.Simulation) (err error) {
			out, err = tracedStep(s, tr)
			return err
		}
		sim, err := setUp(c, rs, traced)
		defer sim.Solver.Close()
		var problems []string
		if err != nil {
			problems = append(problems, err.Error())
		}
		start, _ := takeFingerprint(sim)
		t0, remesh0 := sim.Timers(), sim.RemeshCount
		msgs0, bytes0 := c.Stats().Messages.Load(), c.Stats().Bytes.Load()
		settle(c)
		ms0 := memStats(c)
		clock := startClock(c)
		from := int64(time.Since(epoch))
		var newton int
		var cold []bool
		for i := 0; i < n && err == nil; i++ {
			if err = traced(sim); err != nil {
				problems = append(problems, fmt.Sprintf("traced step %d: %v", sim.StepIndex, err))
				break
			}
			clock.tick(sim)
			newton += out.newtonIts
			cold = append(cold, out.remeshed)
			if i+1 == m && ctl.err == nil {
				// The traced driver must be the untraced one with spans
				// added: same Krylov work, same state, at the same step.
				fp, _ := takeFingerprint(sim)
				if its := itsOf(sim.Timers()); its != ctl.its {
					problems = append(problems, fmt.Sprintf("traced iteration totals %+v differ from untraced %+v at step %d", its, ctl.its, fp.Step))
				}
				if e := fp.errAgainst(ctl.fp); e > 1e-12 || fp.Elems != ctl.fp.Elems || fp.Step != ctl.fp.Step {
					problems = append(problems, fmt.Sprintf("traced state differs from untraced at step %d (rel %.3g, elems %d vs %d)", fp.Step, e, fp.Elems, ctl.fp.Elems))
				}
				clock.reset()
			}
		}
		ms1 := memStats(c)
		t1 := sim.Timers()
		msgs1, bytes1 := c.Stats().Messages.Load(), c.Stats().Bytes.Load()
		end, finite := takeFingerprint(sim)
		validate := mustCase(rs.wl.Case).Validate(sim)
		ms := metricSet{}
		runProbes(c, sim, rs.smoke, ms)
		if c.Rank() != 0 {
			return
		}
		rfp, hasRef := ref.lookup(rs.wl.Name, rs.seed)
		more, refErr := checkRun(start, end, finite, validate, rfp, hasRef && !rs.smoke)
		res.problems = append(res.problems, append(problems, more...)...)
		res.refErr, res.end, res.its = refErr, end, itsOf(t1)
		res.Failed = n - len(clock.walls)

		steps := float64(n)
		sums, stepSelf := spanSums(tr.spans, from)
		ms["core.adapt_s"] = sums[spanAdapt]
		ms["core.step_self_s"] = stepSelf
		if len(clock.walls) >= m && sum(ctl.walls) > 0 {
			ms["core.trace_overhead_frac"] = sum(clock.walls[:m])/sum(ctl.walls) - 1
		}
		r0, r1 := t0.RemeshStages, t1.RemeshStages
		ms["core.adapt_rounds"] = float64(r1.Rounds - r0.Rounds)
		ms["core.adapt_changed"] = float64(sim.RemeshCount - remesh0)
		ms["core.build_incr"] = float64(r1.IncrBuild - r0.IncrBuild)
		ms["core.build_migrate"] = float64(r1.MigrateBuild - r0.MigrateBuild)
		ms["core.build_full"] = float64(r1.FullBuild - r0.FullBuild)
		if tot := r1.TotalOctants - r0.TotalOctants; tot > 0 {
			ms["core.dirty_frac"] = float64(r1.DirtyOctants-r0.DirtyOctants) / float64(tot)
		}
		ms["chns.ch_s"], ms["chns.ns_s"] = sums[spanCH], sums[spanNS]
		ms["chns.pp_s"], ms["chns.vu_s"] = sums[spanPP], sums[spanVU]
		ms["chns.ch_its"] = float64(t1.CH.Iterations-t0.CH.Iterations) / steps
		ms["chns.ns_its"] = float64(t1.NS.Iterations-t0.NS.Iterations) / steps
		ms["chns.pp_its"] = float64(t1.PP.Iterations-t0.PP.Iterations) / steps
		ms["chns.vu_its"] = float64(t1.VU.Iterations-t0.VU.Iterations) / steps
		ms["chns.ch_newton_its"] = float64(newton) / steps
		ch := stageDelta(t0.CH, t1.CH)
		ms["chns.ch_asm_s"] = (ch.Matrix + ch.Vector).Seconds()
		ms["chns.ch_pcsetup_s"] = ch.PCSetup.Seconds()
		ms["chns.ns_pcsetup_s"] = (t1.NS.PCSetup - t0.NS.PCSetup).Seconds()
		ms["chns.pp_pcsetup_s"] = (t1.PP.PCSetup - t0.PP.PCSetup).Seconds()
		ms["chns.ch_unattributed_s"] = sums[spanCH] - (ch.Matrix + ch.Vector + ch.PCSetup + ch.Solve).Seconds()
		ms["chns.cold_step_penalty_s"] = coldStepPenalty(tr.spans, from, cold)
		ms["par.msgs_per_step"] = float64(msgs1-msgs0) / steps
		ms["par.mb_per_step"] = float64(bytes1-bytes0) / (1 << 20) / steps
		ms["proc.alloc_mb_per_step"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / steps
		ms["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		ms["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		res.Metrics = ms.report(perLayer)
	})
	res.Correct = len(res.problems) == 0 && res.Failed == 0
	return res, writeTrace(rs, allSpans)
}

func stageDelta(a, b chns.StageTimes) chns.StageTimes {
	return chns.StageTimes{Matrix: b.Matrix - a.Matrix, Vector: b.Vector - a.Vector,
		Solve: b.Solve - a.Solve, PCSetup: b.PCSetup - a.PCSetup}
}

// coldStepPenalty is the median cost of a step whose adaptation round
// changed the mesh, adaptation itself excluded, minus the median cost of
// the other steps: what the cold rebuild of sparsity, plans and
// preconditioners adds to a step. 0 unless both kinds have tailSamples
// steps in the window.
func coldStepPenalty(spans []span, from int64, cold []bool) float64 {
	adapt := make(map[int]int64) // step span ID -> its adapt span's duration
	for _, sp := range spans {
		if sp.Name == spanAdapt {
			adapt[sp.Parent] += sp.End - sp.Start
		}
	}
	var coldS, warmS []float64
	i := 0
	for _, sp := range spans {
		if sp.Name != spanStep || sp.Start < from || i >= len(cold) {
			continue
		}
		d := float64(sp.End-sp.Start-adapt[sp.ID]) / 1e9
		if cold[i] {
			coldS = append(coldS, d)
		} else {
			warmS = append(warmS, d)
		}
		i++
	}
	if len(coldS) < tailSamples || len(warmS) < tailSamples {
		return 0
	}
	return median(coldS) - median(warmS)
}

// outDir is where runs leave their files; it is git-ignored.
const outDir = "benchmark/out"

func writeTrace(rs runSpec, allSpans [][]span) error {
	if rs.smoke {
		return nil
	}
	var flat []span
	for _, s := range allSpans {
		flat = append(flat, s...)
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{rs.wl.Name, rs.seed, flat})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+rs.wl.Name+".json"), b, 0o644)
}
