package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json: name, unit, direction and, for
// end-to-end metrics, the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the solver sees: how long set-up and a fixed
// simulated interval take, what a step costs, and how much memory the run
// needs. Failed steps travel in the result's attempted/failed counts and the
// reference error in its correct flag, because a bounded metric may never
// read 0.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"run_s", "s", lower, 0.25},
	{"step_p50_s", "s", lower, 0.25},
	{"step_p80_s", "s", lower, 0.25},
	{"dofsteps_per_s", "1/s", higher, 0.25},
	{"mem_peak_mb", "MB", lower, 0.25},
}

// perLayer lists the trace-run metrics as layer.metric, layers being this
// repo's packages. Spans come from the traced driver, probes from one
// public call repeated on the end-state mesh, counts from the program's
// own statistics.
var perLayer = []metricDef{
	// core: the adaptation round and what the step loop itself costs.
	{Name: "core.adapt_s", Unit: "s", Better: lower},
	{Name: "core.step_self_s", Unit: "s", Better: lower},
	{Name: "core.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "core.adapt_rounds", Unit: "count", Better: lower},
	{Name: "core.adapt_changed", Unit: "count", Better: lower},
	{Name: "core.build_incr", Unit: "count", Better: higher},
	{Name: "core.build_migrate", Unit: "count", Better: higher},
	{Name: "core.build_full", Unit: "count", Better: lower},
	{Name: "core.dirty_frac", Unit: "ratio", Better: lower},
	// chns: the four stages, their Krylov work and the program's timers.
	{Name: "chns.ch_s", Unit: "s", Better: lower},
	{Name: "chns.ns_s", Unit: "s", Better: lower},
	{Name: "chns.pp_s", Unit: "s", Better: lower},
	{Name: "chns.vu_s", Unit: "s", Better: lower},
	{Name: "chns.ch_its", Unit: "1/step", Better: lower},
	{Name: "chns.ns_its", Unit: "1/step", Better: lower},
	{Name: "chns.pp_its", Unit: "1/step", Better: lower},
	{Name: "chns.vu_its", Unit: "1/step", Better: lower},
	{Name: "chns.ch_newton_its", Unit: "1/step", Better: lower},
	{Name: "chns.ch_asm_s", Unit: "s", Better: lower},
	{Name: "chns.ch_pcsetup_s", Unit: "s", Better: lower},
	{Name: "chns.ns_pcsetup_s", Unit: "s", Better: lower},
	{Name: "chns.pp_pcsetup_s", Unit: "s", Better: lower},
	{Name: "chns.ch_unattributed_s", Unit: "s", Better: lower},
	{Name: "chns.cold_step_penalty_s", Unit: "s", Better: lower},
	// fem: assembly on a 2-dof mass + stiffness zipped kernel.
	{Name: "fem.asm_cold_elems_per_s", Unit: "1/s", Better: higher},
	{Name: "fem.asm_warm_elems_per_s", Unit: "1/s", Better: higher},
	{Name: "fem.vec_warm_elems_per_s", Unit: "1/s", Better: higher},
	{Name: "fem.plan_entries", Unit: "count", Better: lower},
	// la: SpMV, ILU(0) and BiCGStab on that matrix.
	{Name: "la.spmv_gbs", Unit: "GB/s", Better: higher},
	{Name: "la.spmv_pool_speedup", Unit: "ratio", Better: higher},
	{Name: "la.ilu_setup_us_per_krow", Unit: "us", Better: lower},
	{Name: "la.ilu_apply_us_per_krow", Unit: "us", Better: lower},
	{Name: "la.bicgs_us_per_it_per_krow", Unit: "us", Better: lower},
	{Name: "la.bicgs_its", Unit: "count", Better: lower},
	// mg: a scalar M + K V-cycle over the end-state mesh.
	{Name: "mg.hierarchy_build_s", Unit: "s", Better: lower},
	{Name: "mg.setup_s", Unit: "s", Better: lower},
	{Name: "mg.refresh_s", Unit: "s", Better: lower},
	{Name: "mg.vcycle_us_per_kdof", Unit: "us", Better: lower},
	{Name: "mg.levels", Unit: "count", Better: lower},
	{Name: "mesh.build_elems_per_s", Unit: "1/s", Better: higher},
	{Name: "mesh.ghost_read_us", Unit: "us", Better: lower},
	{Name: "mesh.ghost_frac", Unit: "ratio", Better: lower},
	{Name: "mesh.elem_imbalance", Unit: "ratio", Better: lower},
	{Name: "octree.balance_elems_per_s", Unit: "1/s", Better: higher},
	{Name: "octree.ripple_elems_per_s", Unit: "1/s", Better: higher},
	{Name: "octree.partition_elems_per_s", Unit: "1/s", Better: higher},
	{Name: "transfer.batch_knodes_per_s", Unit: "1/s", Better: higher},
	{Name: "transfer.migrate_knodes_per_s", Unit: "1/s", Better: higher},
	{Name: "detect.identify_elems_per_s", Unit: "1/s", Better: higher},
	{Name: "par.msgs_per_step", Unit: "1/step", Better: lower},
	{Name: "par.mb_per_step", Unit: "MB", Better: lower},
	{Name: "par.allreduce_us", Unit: "us", Better: lower},
	{Name: "par.nbx_us", Unit: "us", Better: lower},
	{Name: "par.pool_dispatch_us", Unit: "us", Better: lower},
	// I/O is off in every timed window; tracked so a change has a number.
	{Name: "ckpt.write_s", Unit: "s", Better: lower},
	{Name: "ckpt.restore_s", Unit: "s", Better: lower},
	{Name: "ckpt.mb", Unit: "MB", Better: lower},
	{Name: "vtk.write_s", Unit: "s", Better: lower},
	{Name: "vtk.mb", Unit: "MB", Better: lower},
	{Name: "blas.dgemm_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "sfc.sort_mkeys_per_s", Unit: "1/s", Better: higher},
	{Name: "proc.alloc_mb_per_step", Unit: "MB", Better: lower},
	{Name: "proc.gc_cycles", Unit: "count", Better: lower},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
}

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and fills in the units from a table.
type metricSet map[string]float64

func (s metricSet) report(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: s[d.Name], Unit: d.Unit}
	}
	return out
}

// median returns the middle value (mean of the two middle ones for an
// even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tailSamples is how many samples must lie beyond a reported percentile:
// the rule that makes p80 the tail metric at the 50-step minimum.
const tailSamples = 10
