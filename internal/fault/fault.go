// Package fault provides deterministic, rank-aware fault injection for
// exercising the run health-and-recovery layer in tests and CI. An
// Injector holds a schedule of faults — forced Krylov divergence, a NaN
// poked into a solver field, a truncated checkpoint write — each keyed
// to an absolute step index (or write ordinal) and optionally to a stage
// and a rank. All hooks are plain nil-checked method calls compiled into
// every build (no build tags): a nil *Injector is inert and every method
// is safe to call on it, so production paths pay a single pointer test.
//
// Determinism is the point: the same spec, seed and rank count fire the
// same faults at the same places on every run, so a recovered run can be
// compared bitwise against the clean run with the equivalent dt
// schedule. When a spec gives a step *range*, the firing step is drawn
// deterministically from the seed (the "seeded" mode used to fuzz the
// recovery path across CI runs without losing reproducibility).
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Point identifies an injection site.
type Point string

const (
	// KSPDiverge forces a stage's Krylov result to report divergence
	// after the (collectively completed) solve. It always fires on every
	// rank regardless of any rank filter: a one-sided divergence report
	// would desynchronize the collective step sequence.
	KSPDiverge Point = "ksp"
	// FieldNaN pokes a NaN into the stage's output field on the matching
	// rank(s); the finite scan must turn it into a typed error.
	FieldNaN Point = "nan"
	// CkptTruncate truncates the checkpoint rank file written by the
	// matching rank(s) mid-payload, after its CRC was computed — a
	// silently torn write the integrity check must catch on read.
	CkptTruncate Point = "ckpt"
)

// Fault is one scheduled injection.
type Fault struct {
	Point Point
	// Step is the absolute simulation step at which to fire (KSPDiverge,
	// FieldNaN) or the 1-based checkpoint-write ordinal (CkptTruncate).
	Step int
	// StepHi, when > Step, makes [Step, StepHi] a range: the actual
	// firing step is drawn deterministically from the injector seed.
	StepHi int
	// Stage filters KSPDiverge/FieldNaN to one solve stage
	// ("ch", "ns", "pp", "vu"; empty matches any stage).
	Stage string
	// Rank fires the fault only on that rank (-1: every rank). Honored
	// for FieldNaN and CkptTruncate; KSPDiverge ignores it (see above).
	Rank int
	// Count is the number of firings before the fault is exhausted
	// (<= 0 means 1, the one-shot default).
	Count int
}

type faultState struct {
	Fault
	step  int // resolved firing step (range collapsed via the seed)
	fired int
}

// Injector evaluates a fault schedule. The zero value and nil are inert.
type Injector struct {
	rank   int
	seed   uint64
	step   int
	writes int // CkptTruncate occurrence counter (1-based ordinals)
	faults []faultState
	// verdicts counts the KSPDiverge queries per stage, fired or not.
	verdicts map[string]int
}

// New builds an injector for one rank. Ranks of a collective run must
// construct their injectors with the same seed and fault list.
func New(seed uint64, rank int, fs ...Fault) *Injector {
	in := &Injector{rank: rank, seed: seed}
	for _, f := range fs {
		if f.Count <= 0 {
			f.Count = 1
		}
		st := f.Step
		if f.StepHi > f.Step {
			span := uint64(f.StepHi - f.Step + 1)
			st = f.Step + int(mix(seed^strHash(string(f.Point)+"/"+f.Stage))%span)
		}
		in.faults = append(in.faults, faultState{Fault: f, step: st})
	}
	return in
}

// Parse builds an injector from a compact spec: semicolon- or
// comma-separated entries of the form
//
//	point@step[-stepHi][/stage][/rank=N][/count=N]
//
// with point one of ksp | nan | ckpt, e.g.
//
//	"ksp@3/ns"            force NS divergence at step 3 (one-shot)
//	"ksp@2-6/pp/count=2"  two PP divergences, step seeded from [2,6]
//	"nan@4/ch/rank=0"     NaN in the CH output on rank 0 at step 4
//	"ckpt@1"              truncate every rank's first checkpoint write
//
// An empty spec yields a nil (inert) injector.
func Parse(spec string, seed uint64, rank int) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var fs []Fault
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		f, err := parseEntry(entry)
		if err != nil {
			return nil, fmt.Errorf("fault: %q: %w", entry, err)
		}
		fs = append(fs, f)
	}
	if len(fs) == 0 {
		return nil, nil
	}
	return New(seed, rank, fs...), nil
}

func parseEntry(entry string) (Fault, error) {
	f := Fault{Rank: -1}
	head, rest, _ := strings.Cut(entry, "/")
	point, at, ok := strings.Cut(head, "@")
	if !ok {
		return f, fmt.Errorf("missing @step")
	}
	switch Point(point) {
	case KSPDiverge, FieldNaN, CkptTruncate:
		f.Point = Point(point)
	default:
		return f, fmt.Errorf("unknown point %q (want ksp | nan | ckpt)", point)
	}
	lo, hi, ranged := strings.Cut(at, "-")
	n, err := strconv.Atoi(lo)
	if err != nil {
		return f, fmt.Errorf("bad step %q", at)
	}
	f.Step = n
	if ranged {
		if f.StepHi, err = strconv.Atoi(hi); err != nil || f.StepHi < f.Step {
			return f, fmt.Errorf("bad step range %q", at)
		}
	}
	for rest != "" {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		switch k, v, kv := strings.Cut(part, "="); {
		case kv && k == "rank":
			if f.Rank, err = strconv.Atoi(v); err != nil {
				return f, fmt.Errorf("bad rank %q", v)
			}
		case kv && k == "count":
			if f.Count, err = strconv.Atoi(v); err != nil || f.Count < 1 {
				return f, fmt.Errorf("bad count %q", v)
			}
		case kv:
			return f, fmt.Errorf("unknown option %q", k)
		default:
			if f.Stage != "" {
				return f, fmt.Errorf("stage given twice (%q, %q)", f.Stage, part)
			}
			f.Stage = strings.ToLower(part)
		}
	}
	if f.Point == CkptTruncate && f.Stage != "" {
		return f, fmt.Errorf("ckpt faults take no stage filter")
	}
	return f, nil
}

// SetStep declares the absolute simulation step about to execute; the
// step-keyed faults (KSPDiverge, FieldNaN) fire only while their
// resolved step is current. Nil-safe.
func (in *Injector) SetStep(step int) {
	if in != nil {
		in.step = step
	}
}

// Fire reports whether a fault at point p (filtered by stage, for the
// stage-keyed points) fires now, and consumes one firing if so. For
// CkptTruncate every call counts one checkpoint write. Nil-safe: a nil
// injector never fires.
func (in *Injector) Fire(p Point, stage string) bool {
	if in == nil {
		return false
	}
	occ := in.step
	switch p {
	case CkptTruncate:
		in.writes++
		occ = in.writes
	case KSPDiverge:
		if in.verdicts == nil {
			in.verdicts = make(map[string]int)
		}
		in.verdicts[stage]++
	}
	// A step-keyed fault with Count > 1 fires on Count consecutive
	// attempts of its step (retries of a rolled-back step re-query at the
	// same step index); a ckpt fault with Count > 1 hits Count successive
	// write ordinals starting at Step.
	for i := range in.faults {
		f := &in.faults[i]
		hit := occ == f.step
		if p == CkptTruncate {
			hit = occ >= f.step && occ < f.step+f.Count
		}
		if f.Point != p || f.fired >= f.Count || !hit {
			continue
		}
		if f.Stage != "" && !strings.EqualFold(f.Stage, stage) {
			continue
		}
		if f.Rank >= 0 && p != KSPDiverge && f.Rank != in.rank {
			continue
		}
		f.fired++
		return true
	}
	return false
}

// Verdicts returns how many KSPDiverge verdicts stage asked for, fired or
// not: one per stage solve that finished its Krylov iterations (one per
// Newton solve for "ch"), an independent count of the solves a run made.
// Nil-safe.
func (in *Injector) Verdicts(stage string) int {
	if in == nil {
		return 0
	}
	return in.verdicts[stage]
}

// String summarizes the schedule with resolved steps, for logs.
func (in *Injector) String() string {
	if in == nil || len(in.faults) == 0 {
		return "none"
	}
	parts := make([]string, len(in.faults))
	for i, f := range in.faults {
		s := fmt.Sprintf("%s@%d", f.Point, f.step)
		if f.Stage != "" {
			s += "/" + f.Stage
		}
		if f.Rank >= 0 {
			s += fmt.Sprintf("/rank=%d", f.Rank)
		}
		if f.Count > 1 {
			s += fmt.Sprintf("/count=%d", f.Count)
		}
		parts[i] = s
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// mix is the splitmix64 finalizer, the repo's standard bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func strHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
