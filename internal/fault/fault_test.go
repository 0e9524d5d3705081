package fault

import "testing"

// Fired returns the total number of firings recorded at point p.
// Nil-safe.
func (in *Injector) Fired(p Point) int {
	if in == nil {
		return 0
	}
	n := 0
	for i := range in.faults {
		if in.faults[i].Point == p {
			n += in.faults[i].fired
		}
	}
	return n
}

// TestNilInjectorIsInert pins the nil-safety contract production paths
// rely on: every method of a nil *Injector is callable and a no-op.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	in.SetStep(3)
	if in.Fire(KSPDiverge, "ns") || in.Fire(FieldNaN, "ch") || in.Fire(CkptTruncate, "") {
		t.Fatal("nil injector fired")
	}
	if in.Fired(KSPDiverge) != 0 {
		t.Fatal("nil injector counted firings")
	}
	if in.String() != "none" {
		t.Fatalf("nil injector String %q, want none", in.String())
	}
}

// TestParse covers the spec grammar: points, step ranges, stage and
// rank/count options, separators, and the rejects.
func TestParse(t *testing.T) {
	if in, err := Parse("", 1, 0); err != nil || in != nil {
		t.Fatalf("empty spec: %v %v (want nil, nil)", in, err)
	}
	in, err := Parse(" ksp@3/ns ; nan@4/ch/rank=0 , ckpt@1/count=2 ", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.faults) != 3 {
		t.Fatalf("parsed %d faults, want 3", len(in.faults))
	}
	f := in.faults[0]
	if f.Point != KSPDiverge || f.Step != 3 || f.Stage != "ns" || f.Rank != -1 || f.Count != 1 {
		t.Fatalf("ksp entry parsed as %+v", f)
	}
	f = in.faults[1]
	if f.Point != FieldNaN || f.Step != 4 || f.Stage != "ch" || f.Rank != 0 {
		t.Fatalf("nan entry parsed as %+v", f)
	}
	f = in.faults[2]
	if f.Point != CkptTruncate || f.Step != 1 || f.Count != 2 {
		t.Fatalf("ckpt entry parsed as %+v", f)
	}

	for _, bad := range []string{
		"ksp",           // missing @step
		"boom@3",        // unknown point
		"ksp@x",         // bad step
		"ksp@5-3",       // inverted range
		"ksp@3/ns/pp",   // stage twice
		"ksp@3/rank=x",  // bad rank
		"ksp@3/count=0", // count < 1
		"ksp@3/frob=1",  // unknown option
		"ckpt@1/ns",     // ckpt takes no stage
	} {
		if _, err := Parse(bad, 1, 0); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestFireOneShotAndCount checks step keying, stage filtering, one-shot
// exhaustion, and Count-limited repeat firing on retries of one step.
func TestFireOneShotAndCount(t *testing.T) {
	in := New(1, 0,
		Fault{Point: KSPDiverge, Step: 3, Stage: "ns"},
		Fault{Point: KSPDiverge, Step: 5, Stage: "pp", Count: 2},
	)
	in.SetStep(2)
	if in.Fire(KSPDiverge, "ns") {
		t.Fatal("fired off-step")
	}
	in.SetStep(3)
	if in.Fire(KSPDiverge, "ch") {
		t.Fatal("fired off-stage")
	}
	if !in.Fire(KSPDiverge, "ns") {
		t.Fatal("one-shot did not fire at its step/stage")
	}
	if in.Fire(KSPDiverge, "ns") {
		t.Fatal("one-shot fired twice (retry at the same step must be clean)")
	}
	// Count=2 fires on two consecutive attempts of the same step.
	in.SetStep(5)
	if !in.Fire(KSPDiverge, "pp") || !in.Fire(KSPDiverge, "pp") {
		t.Fatal("count=2 did not fire twice")
	}
	if in.Fire(KSPDiverge, "pp") {
		t.Fatal("count=2 fired a third time")
	}
	if in.Fired(KSPDiverge) != 3 {
		t.Fatalf("Fired counts %d, want 3", in.Fired(KSPDiverge))
	}
}

// TestRankFiltering pins the asymmetry: FieldNaN honors the rank filter,
// KSPDiverge deliberately ignores it (a one-sided divergence verdict
// would desynchronize the collective step sequence).
func TestRankFiltering(t *testing.T) {
	for rank := 0; rank < 2; rank++ {
		in := New(1, rank,
			Fault{Point: FieldNaN, Step: 2, Rank: 1},
			Fault{Point: KSPDiverge, Step: 2, Rank: 1},
		)
		in.SetStep(2)
		if got, want := in.Fire(FieldNaN, "ch"), rank == 1; got != want {
			t.Errorf("rank %d: FieldNaN fired=%v, want %v", rank, got, want)
		}
		if !in.Fire(KSPDiverge, "ch") {
			t.Errorf("rank %d: KSPDiverge suppressed by rank filter", rank)
		}
	}
}

// TestCkptWriteOrdinals checks that ckpt faults key off the 1-based
// write ordinal, not the simulation step, and that count spans
// successive writes.
func TestCkptWriteOrdinals(t *testing.T) {
	in := New(1, 0, Fault{Point: CkptTruncate, Step: 2, Count: 2})
	in.SetStep(99) // irrelevant for ckpt faults
	fires := []bool{}
	for w := 0; w < 4; w++ {
		fires = append(fires, in.Fire(CkptTruncate, ""))
	}
	want := []bool{false, true, true, false}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("write ordinals fired %v, want %v", fires, want)
		}
	}
}

// TestSeededRangeDeterministic checks that a step range resolves inside
// the range, identically for the same seed (and across ranks), and
// generally differently for a different seed.
func TestSeededRangeDeterministic(t *testing.T) {
	resolved := func(seed uint64, rank int) int {
		in := New(seed, rank, Fault{Point: KSPDiverge, Step: 2, StepHi: 40, Stage: "ns"})
		return in.faults[0].step
	}
	s1 := resolved(7, 0)
	if s1 < 2 || s1 > 40 {
		t.Fatalf("resolved step %d outside [2,40]", s1)
	}
	if resolved(7, 0) != s1 || resolved(7, 3) != s1 {
		t.Fatal("resolution depends on something besides the seed")
	}
	differs := false
	for seed := uint64(1); seed < 6; seed++ {
		if resolved(seed, 0) != s1 {
			differs = true
		}
	}
	if !differs {
		t.Fatal("five different seeds all resolved to the same step")
	}
}

// TestString summarizes with resolved steps in a stable order.
func TestString(t *testing.T) {
	in, err := Parse("nan@4/ch/rank=0;ksp@3/ns", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.String(); got != "ksp@3/ns;nan@4/ch/rank=0" {
		t.Fatalf("String %q", got)
	}
}
