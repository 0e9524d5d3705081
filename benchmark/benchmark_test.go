package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	// The reported tail is the highest percentile with at least ten
	// samples beyond it: at the 50-step minimum that is p80.
	v := make([]float64, minSteps)
	for i := range v {
		v[i] = float64(minSteps - i) // 50 .. 1, unsorted on purpose
	}
	beyond := func(p float64) (n int) {
		cut := percentile(v, p)
		for _, x := range v {
			if x > cut {
				n++
			}
		}
		return n
	}
	if got := percentile(v, 80); got != 40 || beyond(80) != tailSamples || beyond(81) >= tailSamples {
		t.Errorf("p80 of 1..50 = %g with %d samples beyond (p81: %d), want 40 with %d (fewer)", got, beyond(80), beyond(81), tailSamples)
	}
	if got := median(v); got != 25.5 {
		t.Errorf("median of 1..50 = %g, want 25.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	for _, wl := range workloads {
		if n := wl.stepsFor(1); n < minSteps {
			t.Errorf("%s: %d steps at the shortest run cannot carry step_p80_s", wl.Name, n)
		}
		if every := wl.spec(jitter{}, false).Config.RemeshEvery; wl.Warmup != every+2 {
			t.Errorf("%s: warm-up of %d steps does not reach past the first remesh (every %d)", wl.Name, wl.Warmup, every)
		}
		if wl.stepsFor(designSeconds) != wl.Steps || wl.stepsFor(2*designSeconds) != 2*wl.Steps {
			t.Errorf("%s: step count does not scale with the run length", wl.Name)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: spanStep, Start: 100, End: 200},
		{ID: 1, Parent: 0, Name: spanCH, Start: 110, End: 150},
		{ID: 2, Parent: 0, Name: spanNS, Start: 140, End: 170},    // overlaps CH by 10
		{ID: 3, Parent: 0, Name: spanPP, Start: 120, End: 130},    // inside CH
		{ID: 4, Parent: 0, Name: spanVU, Start: 190, End: 230},    // sticks out by 30
		{ID: 5, Parent: 1, Name: "leaf", Start: 115, End: 125},    // grandchild: CH's, not the step's
		{ID: 6, Parent: -1, Name: spanStep, Start: 300, End: 310}, // no children
	}
	// Step 0 is covered on [110,170] and [190,200]: 70 of 100.
	want := []int64{30, 30, 30, 10, 40, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	sums, stepSelf := spanSums(spans, 100)
	if math.Abs(sums[spanStep]-110e-9) > 1e-18 || math.Abs(stepSelf-40e-9) > 1e-18 {
		t.Errorf("spanSums: step total %g self %g, want 1.1e-07 and 4e-08", sums[spanStep], stepSelf)
	}
	if sums, _ := spanSums(spans, 250); math.Abs(sums[spanStep]-10e-9) > 1e-18 || sums[spanCH] != 0 {
		t.Errorf("spanSums must leave out spans before the window: %v", sums)
	}
}

func TestColdStepPenalty(t *testing.T) {
	var spans []span
	var cold []bool
	for i := 0; i < 40; i++ {
		start := int64(1000 * i)
		step := span{ID: len(spans), Parent: -1, Name: spanStep, Start: start, End: start + 100}
		c := i%2 == 0
		if c { // a cold step: 50 of adaptation and 30 more of everything else
			step.End += 80
			spans = append(spans, step, span{ID: len(spans) + 1, Parent: step.ID, Name: spanAdapt, Start: start, End: start + 50})
		} else {
			spans = append(spans, step)
		}
		cold = append(cold, c)
	}
	if got := coldStepPenalty(spans, 0, cold); math.Abs(got-30e-9) > 1e-18 {
		t.Errorf("cold step penalty = %g, want 3e-08", got)
	}
	if got := coldStepPenalty(spans[:20], 0, cold[:12]); got != 0 {
		t.Errorf("penalty with fewer than %d steps of a kind = %g, want 0", tailSamples, got)
	}
}

func TestVerdict(t *testing.T) {
	rep := func(v ...float64) repeated { return newRepeated("s", v) }
	lo := metricDef{Name: "run_s", Unit: "s", Better: lower, Bound: 0.10}
	hi := metricDef{Name: "dofsteps_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b repeated
		want string
	}{
		{"same", lo, rep(10, 10.1, 10.2), rep(10.05, 10.1, 10.3), verdictUnchanged},
		{"slower within bound", lo, rep(10, 10.1, 10.2), rep(10.8, 10.9, 11), verdictUnchanged},
		{"slower beyond bound", lo, rep(10, 10.1, 10.2), rep(11.2, 11.3, 11.4), verdictRegression},
		{"every run faster", lo, rep(10, 10.1, 10.2), rep(9.7, 9.8, 9.9), verdictImproved},
		{"spread wider than bound", lo, rep(9, 10, 11.5), rep(9.5, 10.2, 10.4), verdictUnresolved},
		{"wide spread but every run faster", lo, rep(9, 10, 11.5), rep(8, 8.5, 8.9), verdictImproved},
		{"higher is better: drop beyond bound", hi, rep(100, 101, 102), rep(88, 89, 90), verdictRegression},
		{"higher is better: rise", hi, rep(100, 101, 102), rep(110, 111, 112), verdictImproved},
		{"higher is better: small drop", hi, rep(100, 101, 102), rep(95, 96, 101), verdictUnchanged},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
	// compare exits non-zero on a regression and on a higher failed-step
	// fraction, zero otherwise.
	file := func(runS float64, failed int) resultFile {
		e2e := map[string]repeated{}
		for _, d := range endToEnd {
			e2e[d.Name] = rep(1, 1, 1)
		}
		e2e["run_s"] = rep(runS, runS, runS)
		return resultFile{Workloads: map[string]workloadResult{
			"w": {Correct: failed == 0, Attempted: 50, Failed: failed, EndToEnd: e2e}}}
	}
	if code := compareFiles(io.Discard, file(10, 0), file(10.5, 0)); code != 0 {
		t.Errorf("compare within bounds exits %d, want 0", code)
	}
	if code := compareFiles(io.Discard, file(10, 0), file(13, 0)); code != 1 {
		t.Errorf("compare with a regression exits %d, want 1", code)
	}
	if code := compareFiles(io.Discard, file(10, 0), file(10, 1)); code != 1 {
		t.Errorf("compare with a newly failed step exits %d, want 1", code)
	}
}

func TestCheckRun(t *testing.T) {
	ref := fingerprint{Step: 56, Elems: 6000, Phi: 0.84, Interface: 0.117, Kinetic: 4.7e-4}
	start := ref
	start.Step = 6
	if p, e := checkRun(start, ref, true, nil, ref, true); len(p) != 0 || e != 0 {
		t.Errorf("a run on its reference is reported incorrect: %v (err %g)", p, e)
	}
	off := ref
	off.Kinetic *= 1 + 5e-4
	if p, _ := checkRun(start, off, true, nil, ref, true); len(p) != 1 {
		t.Errorf("a 5e-4 deviation from the reference must fail the run, got %v", p)
	}
	if p, _ := checkRun(start, off, true, nil, ref, false); len(p) != 0 {
		t.Errorf("without a reference only the invariants apply, got %v", p)
	}
	off = ref
	off.Elems = 6200
	if p, _ := checkRun(start, off, true, nil, ref, true); len(p) != 1 {
		t.Errorf("an element count 3%% off the reference must fail the run, got %v", p)
	}
	off = ref
	off.Phi = math.NaN()
	if p, _ := checkRun(start, off, false, os.ErrInvalid, ref, false); len(p) != 3 {
		t.Errorf("non-finite fields, a Validate error and a lost phi integral are three problems, got %v", p)
	}
}

// TestManifestAgreesWithCode: BENCHMARK.json and the tables in this
// package name the same workloads and metrics, with the same units,
// directions and bounds, and a reference exists for every workload and
// reference seed.
func TestManifestAgreesWithCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != designSeconds {
		t.Errorf("run_seconds = %d, the step counts are sized for %d", m.RunSeconds, designSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, m.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd)
	same("per-layer", m.PerLayer, perLayer)
	if m.EndToEnd[0].Name != "setup_s" {
		t.Errorf("the first end-to-end metric must be setup_s")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range referenceSeeds {
			if fp, ok := ref.lookup(w.Name, seed); !ok || fp.Step != w.Warmup+w.Steps {
				t.Errorf("%s seed %d: reference missing or not at step %d: %+v", w.Name, seed, w.Warmup+w.Steps, fp)
			}
		}
	}
}

// TestSmoke drives every workload at its scenario's smoke levels for 3
// steps through both drivers and every probe, and checks that each metric
// the manifest names is reported and that the correctness gate passes.
func TestSmoke(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	// Counts and ratios that are legitimately 0 on some workloads.
	mayBeZero := map[string]bool{
		"core.adapt_s": true, "core.adapt_rounds": true, "core.adapt_changed": true, "core.build_incr": true,
		"core.build_migrate": true, "core.build_full": true, "core.dirty_frac": true,
		"chns.cold_step_penalty_s": true, "mesh.ghost_frac": true, "mesh.ghost_read_us": true,
		"par.msgs_per_step": true, "par.mb_per_step": true, "proc.gc_cycles": true, "proc.gc_pause_ms": true,
	}
	signed := map[string]bool{"core.trace_overhead_frac": true, "chns.ch_unattributed_s": true}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rs := runSpec{wl: wl, seed: 7, seconds: designSeconds, trace: trace, smoke: true}
				res, err := runOne(rs, ref)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != 3 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d: %v", trace, res.Correct, res.Failed, res.Attempted, res.problems)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics reported, %d defined", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok || v.Unit != d.Unit:
						t.Errorf("%s: missing or wrong unit: %+v", d.Name, v)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %g", d.Name, v.Value)
					case v.Value < 0 && !signed[d.Name], v.Value == 0 && !mayBeZero[d.Name]:
						t.Errorf("%s = %g, want a positive value", d.Name, v.Value)
					}
				}
				if trace && wl.Ranks > 1 && res.Metrics["par.msgs_per_step"].Value == 0 {
					t.Errorf("a %d-rank workload must send messages", wl.Ranks)
				}
			}
		})
	}
}
