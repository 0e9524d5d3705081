// Command benchmark is the repo's performance benchmark: four workloads
// that each run the adaptive CHNS time loop end to end, an outside-in
// trace of one run per workload, and a correctness gate on every run.
// BENCHMARK.json at the repo root states the contract; README.md in this
// directory is the glossary and the prediction sheet. Run it from the
// repo root.
//
//	go run ./benchmark --workload jet3d-mpi --seed 1 --seconds 20 --trace 0
//	    one run; the last line of standard output is the result object
//	go run ./benchmark [-out benchmark/out/result.json]
//	    every workload, each run in a fresh child process: three untraced
//	    runs (median, min, max) and one traced run
//	go run ./benchmark compare A.json B.json
//	    apply every metric's bound and direction to two result files
//	go run ./benchmark -write-reference
//	    regenerate benchmark/reference.json for seeds 1-3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	// Pin before anything sizes a worker pool from GOMAXPROCS.
	runtime.GOMAXPROCS(procs)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "seed of the generated initial geometry")
	seconds := flag.Float64("seconds", designSeconds, "run length the measured step count is scaled to")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	out := flag.String("out", outDir+"/result.json", "result file written when running all workloads")
	smoke := flag.Bool("smoke", false, "scenario smoke levels and 3 steps (exercises every code path in seconds; numbers mean nothing)")
	writeRef := flag.Bool("write-reference", false, "regenerate "+referenceFile+" and exit")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *smoke, *writeRef, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, smoke, writeRef bool, out string) error {
	switch {
	case writeRef:
		return writeReference()
	case name == "":
		return runAll(seed, seconds, smoke, out)
	}
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	rs := runSpec{wl: wl, seed: seed, seconds: seconds, trace: trace, smoke: smoke}
	res, err := runOne(rs, ref)
	if err != nil {
		return err
	}
	printRun(rs, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s seed %d: run is not correct", wl.Name, seed)
	}
	return nil
}

func runOne(rs runSpec, ref reference) (runResult, error) {
	if rs.trace {
		return runTraced(rs, ref)
	}
	return runUntraced(rs, ref), nil
}

// printRun is the human-readable account of a run: environment, every
// metric by name with its unit, and the correctness gate's verdict.
func printRun(rs runSpec, res runResult) {
	env, _ := json.Marshal(readEnvironment())
	fmt.Printf("# %s seed=%d steps=%d warmup=%d ranks=%d trace=%v\n# env %s\n",
		rs.wl.Name, rs.seed, rs.steps(), rs.warmup(), rs.wl.Ranks, rs.trace, env)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("# failed_steps_frac %g (%d of %d)  ref_err_max %.3g  end: step %d, %d elements, its %+v\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, res.refErr, res.end.Step, res.end.Elems, res.its)
	for _, p := range res.problems {
		fmt.Println("# INCORRECT:", p)
	}
}

// writeReference runs every workload untraced at the design run length on
// the reference seeds and stores the end-state fingerprints.
func writeReference() error {
	ref := reference{}
	for i := range workloads {
		wl := &workloads[i]
		ref[wl.Name] = map[string]fingerprint{}
		for _, seed := range referenceSeeds {
			res := runUntraced(runSpec{wl: wl, seed: seed, seconds: designSeconds}, nil)
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %v", wl.Name, seed, res.problems)
			}
			ref[wl.Name][fmt.Sprint(seed)] = res.end
			fmt.Printf("%s seed %d: %+v\n", wl.Name, seed, res.end)
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referenceFile, append(b, '\n'), 0o644)
}
