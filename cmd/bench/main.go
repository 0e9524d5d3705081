// Command bench sweeps solver configurations — scenario × preset ×
// ranks × vector workers × preconditioner — through the in-process MPI
// stand-in, collects each run's core.RunStats (per-stage timers and
// Krylov iteration min/mean/max), optionally folds in `go test -bench`
// metrics, and writes one normalized JSON artifact. The committed
// BENCH_*.json files in the repo root are its output; CI runs it in
// smoke form and fails on any run or parse error.
//
// Usage:
//
//	go run ./cmd/bench -cases bubble -presets smoke,bench -ranks 1,2 \
//	    -pcs bjacobi,jacobi,gmg -steps 3 -out BENCH.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"proteus/internal/chns"
	"proteus/internal/core"
	"proteus/internal/par"
	"proteus/internal/scenario"
)

// runRecord is one sweep point: the configuration axes plus the full
// stats payload the run produced.
type runRecord struct {
	Case       string        `json:"case"`
	Preset     string        `json:"preset"`
	Ranks      int           `json:"ranks"`
	VecWorkers int           `json:"vec_workers"`
	PC         string        `json:"pc"`
	Steps      int           `json:"steps"`
	WallMS     float64       `json:"wall_ms"`
	Stats      core.RunStats `json:"stats"`
}

// gobenchRecord is one parsed `go test -bench` result line: the
// benchmark name, its iteration count, and every value/unit metric pair
// (ns/op, B/op, allocs/op, and any b.ReportMetric custom units).
type gobenchRecord struct {
	Name    string             `json:"name"`
	N       int64              `json:"n"`
	Metrics map[string]float64 `json:"metrics"`
}

type benchFile struct {
	Schema  string          `json:"schema"`
	Runs    []runRecord     `json:"runs"`
	Gobench []gobenchRecord `json:"gobench,omitempty"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitCSV(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in list %q", f, s)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	cases := flag.String("cases", "bubble", "comma-separated scenario names")
	presets := flag.String("presets", "smoke", "comma-separated presets (smoke,bench,full)")
	ranksList := flag.String("ranks", "1", "comma-separated rank counts")
	vecWorkers := flag.String("vec-workers", "0", "comma-separated vector-shard worker counts (0: auto)")
	pcs := flag.String("pcs", "bjacobi", "comma-separated NS/PP preconditioners (bjacobi,jacobi,gmg)")
	steps := flag.Int("steps", 3, "time steps per sweep point")
	gobench := flag.String("gobench", "", "also run `go test -bench <regexp>` on the root package and record its metrics")
	out := flag.String("out", "BENCH.json", "output JSON path")
	baseline := flag.String("baseline", "", "committed BENCH_*.json to gate against; exit 1 on wall-clock or Krylov-iteration regressions")
	tol := flag.Float64("tol", 0.35, "relative wall-clock noise bound for -baseline (0.35 = fail beyond +35%)")
	wallFloor := flag.Float64("wall-floor", 25, "absolute wall-clock slack in ms added on top of -tol (scheduler jitter dominates short smoke runs)")
	iterTol := flag.Float64("iter-tol", 0.5, "absolute slack on mean Krylov iterations per stage for -baseline")
	flag.Parse()

	ranks, err := splitInts(*ranksList)
	if err != nil {
		fatal(err)
	}
	workers, err := splitInts(*vecWorkers)
	if err != nil {
		fatal(err)
	}
	// Validate every axis up front so a typo fails before the first
	// (possibly long) run, not after it.
	for _, pc := range splitCSV(*pcs) {
		if !chns.ValidPC(pc) {
			fatal(fmt.Errorf("unknown preconditioner %q (valid: %s, %s, %s)", pc, chns.PCBJacobi, chns.PCJacobi, chns.PCGMG))
		}
	}
	for _, name := range splitCSV(*cases) {
		if _, ok := scenario.Get(name); !ok {
			fatal(fmt.Errorf("unknown scenario %q (registered: %v)", name, scenario.Names()))
		}
	}
	var prs []scenario.Preset
	for _, p := range splitCSV(*presets) {
		pr, err := scenario.ParsePreset(p)
		if err != nil {
			fatal(err)
		}
		prs = append(prs, pr)
	}

	file := benchFile{Schema: "proteus-bench/v1"}
	for _, name := range splitCSV(*cases) {
		sc, _ := scenario.Get(name)
		for _, pr := range prs {
			for _, r := range ranks {
				for _, nw := range workers {
					for _, pc := range splitCSV(*pcs) {
						rec, err := runOne(sc, pr, r, nw, pc, *steps)
						if err != nil {
							fatal(fmt.Errorf("%s/%s ranks=%d vw=%d pc=%s: %v", name, pr, r, nw, pc, err))
						}
						file.Runs = append(file.Runs, rec)
						fmt.Printf("%-10s %-6s ranks=%d vw=%d pc=%-8s wall=%8.1fms  ch-newton=%.2f ch-its=%.2f ns-its=%.2f pp-its=%.2f\n",
							name, pr, r, nw, pc, rec.WallMS,
							rec.Stats.KrylovIters["ch_newton"].Mean, rec.Stats.KrylovIters["ch"].Mean,
							rec.Stats.KrylovIters["ns"].Mean, rec.Stats.KrylovIters["pp"].Mean)
					}
				}
			}
		}
	}

	if *gobench != "" {
		gb, err := runGobench(*gobench)
		if err != nil {
			fatal(err)
		}
		file.Gobench = gb
		for _, g := range gb {
			fmt.Printf("gobench %s: %v\n", g.Name, g.Metrics)
		}
	}

	if err := core.WriteStatsJSON(*out, file); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d runs, %d gobench results)\n", *out, len(file.Runs), len(file.Gobench))

	if *baseline != "" {
		if err := checkBaseline(file, *baseline, *tol, *wallFloor, *iterTol); err != nil {
			fatal(err)
		}
	}
}

// runKey identifies a sweep point across bench files for baseline
// matching.
type runKey struct {
	Case, Preset, PC         string
	Ranks, VecWorkers, Steps int
}

func (r runRecord) key() runKey {
	return runKey{Case: r.Case, Preset: r.Preset, PC: r.PC, Ranks: r.Ranks, VecWorkers: r.VecWorkers, Steps: r.Steps}
}

func (k runKey) String() string {
	return fmt.Sprintf("%s/%s ranks=%d vw=%d pc=%s steps=%d", k.Case, k.Preset, k.Ranks, k.VecWorkers, k.PC, k.Steps)
}

// checkBaseline is the regression gate: every sweep point present in
// both the current run and the committed baseline must be no slower
// than baseline wall clock times (1+tol), plus wallFloor ms of absolute
// slack (short smoke runs jitter by a fixed amount, not a fraction),
// and no worse than iterTol extra mean Krylov iterations in any stage.
// Iteration counts are the noise-free signal — a preconditioner
// regression shows up there even when wall clock hides inside the
// tolerance. Sweep points in only one of the two files are reported but
// never fail the gate, so the grid can grow without re-baselining.
func checkBaseline(cur benchFile, path string, tol, wallFloor, iterTol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %v", err)
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %v", path, err)
	}
	baseBy := make(map[runKey]runRecord, len(base.Runs))
	for _, r := range base.Runs {
		baseBy[r.key()] = r
	}

	var regressions []string
	matched := 0
	for _, r := range cur.Runs {
		b, ok := baseBy[r.key()]
		if !ok {
			fmt.Printf("baseline: %s not in %s, skipping\n", r.key(), path)
			continue
		}
		matched++
		delete(baseBy, r.key())
		if limit := b.WallMS*(1+tol) + wallFloor; r.WallMS > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: wall %.1fms > %.1fms (baseline %.1fms +%.0f%% +%.0fms)",
				r.key(), r.WallMS, limit, b.WallMS, tol*100, wallFloor))
		}
		for stage, bi := range b.Stats.KrylovIters {
			ci, ok := r.Stats.KrylovIters[stage]
			if !ok {
				regressions = append(regressions, fmt.Sprintf(
					"%s: stage %q present in baseline but missing from run", r.key(), stage))
				continue
			}
			if ci.Mean > bi.Mean+iterTol {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s iterations %.2f > baseline %.2f (+%.1f allowed)",
					r.key(), stage, ci.Mean, bi.Mean, iterTol))
			}
		}
	}
	for k := range baseBy {
		fmt.Printf("baseline: %s in %s was not exercised by this sweep\n", k, path)
	}
	if matched == 0 {
		return fmt.Errorf("baseline %s: no sweep point matched the current grid", path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("baseline %s: %d regression(s):\n  %s",
			path, len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Printf("baseline %s: %d run(s) within tolerance (wall +%.0f%%+%.0fms, iters +%.1f)\n",
		path, matched, tol*100, wallFloor, iterTol)
	return nil
}

// runOne executes a single sweep point and returns its record. Any
// panic inside the rank group (a diverged stage, a bad config) is
// surfaced as an error rather than killing the whole sweep harness.
func runOne(sc scenario.Scenario, pr scenario.Preset, ranks, nw int, pc string, steps int) (rec runRecord, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	spec := sc.Build(pr)
	spec.Config.Opt.PCNS, spec.Config.Opt.PCPP = pc, pc
	if nw > 0 {
		spec.Config.Opt.VecWorkers = nw
	}
	rec = runRecord{Case: sc.Name, Preset: string(pr), Ranks: ranks, VecWorkers: nw, PC: pc, Steps: steps}
	par.Run(ranks, func(c *par.Comm) {
		sim := sc.NewFromSpec(c, pr, spec)
		res, rerr := sim.RunUntil(core.RunOptions{Steps: steps})
		if rerr != nil {
			panic(rerr)
		}
		st := sim.Stats()
		if c.Rank() == 0 {
			rec.WallMS = float64(res.Wall.Microseconds()) / 1e3
			rec.Stats = st
		}
	})
	return rec, nil
}

// runGobench shells out to `go test -bench` on the root package with a
// single timed iteration and parses every result line. A line that
// starts with "Benchmark" but does not parse is an error, as is a
// regexp matching nothing — CI runs this to keep the bench surface and
// this parser honest.
func runGobench(re string) ([]gobenchRecord, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", re, "-benchtime", "1x", "-benchmem", ".")
	outb, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -bench %q: %v\n%s", re, err, outb)
	}
	var recs []gobenchRecord
	for _, line := range strings.Split(string(outb), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		rec, perr := parseBenchLine(line)
		if perr != nil {
			return nil, perr
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("go test -bench %q matched no benchmarks", re)
	}
	return recs, nil
}

// parseBenchLine parses one testing-package benchmark result line:
//
//	BenchmarkName-8   1   123456 ns/op   12 B/op   3 allocs/op   5.00 extra-its
//
// i.e. name, iteration count, then value/unit pairs.
func parseBenchLine(line string) (gobenchRecord, error) {
	f := strings.Fields(line)
	if len(f) < 2 || len(f)%2 != 0 {
		return gobenchRecord{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return gobenchRecord{}, fmt.Errorf("benchmark line %q: bad iteration count %q", line, f[1])
	}
	rec := gobenchRecord{Name: f[0], N: n, Metrics: map[string]float64{}}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return gobenchRecord{}, fmt.Errorf("benchmark line %q: bad metric value %q", line, f[i])
		}
		rec.Metrics[f[i+1]] = v
	}
	return rec, nil
}
