package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// resultFile is what a run of every workload leaves behind and what
// `compare` reads: per workload, every end-to-end metric over the
// untraced repeats and the traced run's per-layer metrics.
type resultFile struct {
	Schema    string                    `json:"schema"`
	Env       environment               `json:"env"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Repeats   int                       `json:"repeats"`
	Workloads map[string]workloadResult `json:"workloads"`
}

const resultSchema = "proteus-benchmark/v1"

type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]repeated    `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// repeated is one end-to-end metric over the untraced repeats: the median
// is the reported value, min and max its spread.
type repeated struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func newRepeated(unit string, values []float64) repeated {
	return repeated{Unit: unit, Median: median(values), Min: slices.Min(values), Max: slices.Max(values), Values: values}
}

// runChild runs one workload run in a fresh process of this program and
// parses the result object off the last line of its output.
func runChild(wl string, seed int64, seconds float64, trace, smoke bool) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	t := 0
	if trace {
		t = 1
	}
	args := []string{"--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(t)}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: no result (%v): %w", wl, runErr, err)
	}
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "# INCORRECT") {
			fmt.Println(l)
		}
	}
	return res, nil
}

// repeats is how many untraced runs of a workload runAll makes.
const repeats = 3

// runAll measures every workload — repeats untraced runs and one traced
// run, each in its own process — prints every metric by name with its
// unit, writes the result file and fails if any run was incorrect.
func runAll(seed int64, seconds float64, smoke bool, out string) error {
	file := resultFile{Schema: resultSchema, Env: readEnvironment(), Seed: seed, Seconds: seconds,
		Repeats: repeats, Workloads: map[string]workloadResult{}}
	if file.Env.Oversubscribed {
		fmt.Printf("# oversubscribed: %d CPU, none to spare beside the run's %d; timings are unreliable, counts are exact\n", file.Env.NumCPU, procs)
	}
	allCorrect := true
	for _, wl := range workloads {
		wr := workloadResult{Correct: true, EndToEnd: map[string]repeated{}}
		values := map[string][]float64{}
		for r := 0; r < repeats; r++ {
			res, err := runChild(wl.Name, seed, seconds, false, smoke)
			if err != nil {
				return err
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for n, v := range res.Metrics {
				values[n] = append(values[n], v.Value)
			}
		}
		traced, err := runChild(wl.Name, seed, seconds, true, smoke)
		if err != nil {
			return err
		}
		wr.Correct = wr.Correct && traced.Correct
		wr.PerLayer = traced.Metrics
		fmt.Printf("== %s  correct=%v  failed_steps_frac=%g (%d of %d)\n", wl.Name, wr.Correct,
			float64(wr.Failed)/float64(wr.Attempted), wr.Failed, wr.Attempted)
		for _, d := range endToEnd {
			rp := newRepeated(d.Unit, values[d.Name])
			wr.EndToEnd[d.Name] = rp
			fmt.Printf("%-32s %14.6g %-8s [%.6g .. %.6g]\n", d.Name, rp.Median, d.Unit, rp.Min, rp.Max)
		}
		for _, d := range perLayer {
			fmt.Printf("%-32s %14.6g %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
		}
		file.Workloads[wl.Name] = wr
		allCorrect = allCorrect && wr.Correct
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	if !allCorrect {
		return fmt.Errorf("at least one run was not correct")
	}
	return nil
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return f, nil
}
