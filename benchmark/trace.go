package main

import (
	"sort"
	"time"

	"proteus/internal/chns"
	"proteus/internal/core"
)

// span is one timed call into a layer: who caused it (Parent is a span ID
// on the same rank, -1 for a step), which rank ran it, and when, in
// nanoseconds since the tracer's epoch. Spans of one step share its ID as
// their parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps one rank's spans in memory; they are written out when the
// benchmark ends.
type tracer struct {
	rank  int
	epoch time.Time
	spans []span
}

func newTracer(rank int, epoch time.Time) *tracer {
	return &tracer{rank: rank, epoch: epoch}
}

func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rank: t.rank,
		Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

// Span names, layer first.
const (
	spanStep  = "core.step"
	spanAdapt = "core.adapt"
	spanCH    = "chns.ch"
	spanNS    = "chns.ns"
	spanPP    = "chns.pp"
	spanVU    = "chns.vu"
)

// stepOutcome is what the traced driver learns from one step beyond its
// spans.
type stepOutcome struct {
	newtonIts int
	remeshed  bool
}

// tracedStep advances the simulation one time block through the same
// public calls core.Simulation.Step makes — Adapt when due, then the four
// solver stages, then the step/time bookkeeping — with a span around each.
// It has no retry: the workloads are chosen so that no step fails, and a
// failure fails the run.
func tracedStep(s *core.Simulation, t *tracer) (stepOutcome, error) {
	var out stepOutcome
	step := t.begin(spanStep, -1)
	defer t.end(step)
	if s.StepIndex > 0 && s.StepIndex%s.Cfg.RemeshEvery == 0 {
		before := s.RemeshCount
		id := t.begin(spanAdapt, step)
		s.Adapt()
		t.end(id)
		out.remeshed = s.RemeshCount != before
	}
	id := t.begin(spanCH, step)
	rep, err := s.Solver.StepCH(nil)
	t.end(id)
	if err != nil {
		return out, err
	}
	out.newtonIts = rep.NewtonIterations
	id = t.begin(spanNS, step)
	_, err = s.Solver.StepNS()
	t.end(id)
	if err != nil {
		return out, err
	}
	id = t.begin(spanPP, step)
	var psi []float64
	psi, _, err = s.Solver.StepPP()
	t.end(id)
	if err != nil {
		return out, err
	}
	id = t.begin(spanVU, step)
	_, err = s.Solver.StepVU(psi)
	t.end(id)
	if err != nil {
		return out, err
	}
	s.StepIndex++
	s.Time += s.Cfg.Opt.Dt
	return out, nil
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other and may stick out of the parent; covered time is the length of
// the union of the children clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, sp.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// spanSums adds up durations by span name and the self time of the step
// spans, over the spans with Start >= from (the measured window).
func spanSums(spans []span, from int64) (byName map[string]float64, stepSelf float64) {
	byName = make(map[string]float64)
	self := selfTimes(spans)
	for i, sp := range spans {
		if sp.Start < from {
			continue
		}
		byName[sp.Name] += float64(sp.End-sp.Start) / 1e9
		if sp.Name == spanStep {
			stepSelf += float64(self[i]) / 1e9
		}
	}
	return byName, stepSelf
}

// stageIts is the Krylov-iteration total of every stage: the numbers the
// traced and untraced drivers must agree on exactly.
type stageIts struct{ CH, NS, PP, VU int }

func itsOf(t chns.Timers) stageIts {
	return stageIts{t.CH.Iterations, t.NS.Iterations, t.PP.Iterations, t.VU.Iterations}
}
