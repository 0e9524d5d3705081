package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// Comparison verdicts, one per (workload, end-to-end metric).
const (
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
)

// worsening is how much worse b's median is than a's, as a share of a's
// median (negative: better).
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict applies a metric's bound and direction to the repeats of a
// parent (a) and a change (b). A median worse by more than the bound is a
// regression. Otherwise, where either side's own spread exceeds the
// bound, the bound cannot resolve the difference: the row is unresolved
// unless every run of b reads better than every run of a.
func verdict(d metricDef, a, b repeated) string {
	if worsening(d, a.Median, b.Median) > d.Bound {
		return verdictRegression
	}
	allBetter := b.Max < a.Min
	if d.Better == higher {
		allBetter = b.Min > a.Max
	}
	if allBetter {
		return verdictImproved
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return verdictUnresolved
	}
	return verdictUnchanged
}

func spread(r repeated) float64 { return (r.Max - r.Min) / r.Median }

// compareMain prints one row per (workload, metric) for two result files
// and returns the exit code: 1 on a regression, a lost correctness flag
// or a higher failed-step fraction, 2 on unusable input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readResultFile(args[0])
	if err == nil {
		var b resultFile
		if b, err = readResultFile(args[1]); err == nil {
			return compareFiles(os.Stdout, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func compareFiles(w io.Writer, a, b resultFile) int {
	code := 0
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NumCPU != b.Env.NumCPU || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "# warning: the two files are from different machines or run lengths (%s x%d, %gs vs %s x%d, %gs)\n",
			a.Env.CPUModel, a.Env.NumCPU, a.Seconds, b.Env.CPUModel, b.Env.NumCPU, b.Seconds)
	}
	if a.Env.Oversubscribed || b.Env.Oversubscribed {
		fmt.Fprintln(w, "# warning: oversubscribed run; only the counts are reliable")
	}
	fmt.Fprintf(w, "%-16s %-30s %13s %13s %8s %6s  %s\n", "workload", "metric", "A", "B", "worse%", "bound%", "verdict")
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wl := range names {
		wa, wb := a.Workloads[wl], b.Workloads[wl]
		if _, ok := b.Workloads[wl]; !ok {
			fmt.Fprintf(w, "%-16s missing from B\n", wl)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			ra, rb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(d, ra, rb)
			if v == verdictRegression {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-30s %13.6g %13.6g %+8.2f %6.0f  %s\n", wl, d.Name, ra.Median, rb.Median,
				100*worsening(d, ra.Median, rb.Median), 100*d.Bound, v)
		}
		fa := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		fb := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		v := verdictUnchanged
		if fb > fa || (wa.Correct && !wb.Correct) {
			v, code = verdictRegression, 1
		}
		fmt.Fprintf(w, "%-16s %-30s %13.6g %13.6g %8s %6.0f  %s (correct: %v -> %v)\n", wl, "failed_steps_frac", fa, fb, "", 0.0, v, wa.Correct, wb.Correct)
		// Per-layer metrics carry no bound; counts must repeat exactly
		// for a fixed seed, so a differing count is called out.
		for _, d := range perLayer {
			va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value
			note := ""
			if d.Unit == "count" || d.Unit == "1/step" {
				note = "same"
				if va != vb {
					note = "count differs"
				}
			}
			fmt.Fprintf(w, "%-16s %-30s %13.6g %13.6g %8s %6s  %s\n", wl, d.Name, va, vb, "", "", note)
		}
	}
	return code
}
