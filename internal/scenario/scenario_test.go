package scenario

import (
	"fmt"
	"testing"

	"proteus/internal/ckpt"
	"proteus/internal/core"
	"proteus/internal/par"
)

// TestRegistryComplete checks the built-in catalogue: at least the six
// documented cases, each self-describing and instantiable at every
// preset.
func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("only %d scenarios registered: %v", len(names), names)
	}
	for _, want := range []string{"bubble", "swirl", "jet", "spinodal", "rti", "splash"} {
		sc, ok := Get(want)
		if !ok {
			t.Fatalf("scenario %q not registered (have %v)", want, names)
		}
		if sc.Description == "" || sc.PaperRef == "" || sc.Validate == nil {
			t.Errorf("%s: incomplete self-description: %+v", want, sc)
		}
		for _, pr := range Presets {
			sp := sc.Build(pr)
			if sp.Config.Dim != 2 && sp.Config.Dim != 3 {
				t.Errorf("%s/%s: bad dim %d", want, pr, sp.Config.Dim)
			}
			if sp.Phi0 == nil {
				t.Errorf("%s/%s: nil Phi0", want, pr)
			}
			if sp.Config.InterfaceLevel < sp.Config.BulkLevel {
				t.Errorf("%s/%s: interface level %d below bulk %d", want, pr,
					sp.Config.InterfaceLevel, sp.Config.BulkLevel)
			}
		}
		// Presets order by size: smoke must not out-resolve bench.
		if sc.Build(Smoke).Config.InterfaceLevel > sc.Build(Bench).Config.InterfaceLevel {
			t.Errorf("%s: smoke preset finer than bench", want)
		}
	}
	if _, err := ParsePreset("smoke"); err != nil {
		t.Error(err)
	}
	if _, err := ParsePreset("huge"); err == nil {
		t.Error("ParsePreset accepted an unknown preset")
	}
}

// TestScenarioSmoke is the CI smoke matrix: every registered scenario
// runs a few steps at the smoke preset on 1 and 2 ranks and passes its
// own Validate check.
func TestScenarioSmoke(t *testing.T) {
	for _, name := range Names() {
		sc, _ := Get(name)
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/r%d", name, p), func(t *testing.T) {
				par.Run(p, func(c *par.Comm) {
					sim := sc.New(c, Smoke)
					if sim.ScenarioName != name || sim.PresetName != string(Smoke) {
						panic("scenario identity not stamped on the simulation")
					}
					if _, err := sim.RunUntil(core.RunOptions{Steps: 3}); err != nil {
						panic(err)
					}
					if err := sc.Validate(sim); err != nil {
						panic(fmt.Sprintf("%s failed validation: %v", name, err))
					}
				})
			})
		}
	}
}

// TestCheckpointRestartViaRegistry drives the full production restart
// path: run a scenario, checkpoint, rebuild the config from the
// snapshot's (scenario, preset) meta through the registry, restore at a
// different rank count, and keep running.
func TestCheckpointRestartViaRegistry(t *testing.T) {
	base := t.TempDir() + "/ck"
	var wantDesc string
	par.Run(2, func(c *par.Comm) {
		sc, _ := Get("bubble")
		sim := sc.New(c, Smoke)
		if _, err := sim.RunUntil(core.RunOptions{Steps: 3, FinalCkpt: true, CkptBase: base}); err != nil {
			panic(err)
		}
		d := sim.Describe()
		if c.Rank() == 0 {
			wantDesc = d
		}
	})
	// The driver-side flow: resolve the base to the newest intact
	// generation, then the meta names the scenario and the registry
	// rebuilds the non-serializable Config.
	meta, base, err := ckpt.ReadLatestGood(base)
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := Get(meta.Scenario)
	if !ok {
		t.Fatalf("snapshot names unregistered scenario %q", meta.Scenario)
	}
	pr, err := ParsePreset(meta.Preset)
	if err != nil {
		t.Fatal(err)
	}
	spec := sc.Build(pr)
	par.Run(4, func(c *par.Comm) {
		sim, err := core.Restore(c, spec.Config, base)
		if err != nil {
			panic(err)
		}
		d := sim.Describe()
		if c.Rank() == 0 && d != wantDesc {
			panic(fmt.Sprintf("restored Describe %q, want %q", d, wantDesc))
		}
		if _, err := sim.RunUntil(core.RunOptions{Steps: 2}); err != nil {
			panic(err)
		}
		if err := sc.Validate(sim); err != nil {
			panic(err)
		}
	})
}

// TestCHNewtonConvergesQuadratically pins the CH Newton order on the
// bubble smoke preset: with the Jacobian the exact derivative of the
// residual, a step needs at most 4 iterations and the last one contracts
// the nonlinear residual by at least 1e3 (a Picard-linearised Jacobian
// contracts by a constant ~50 per iteration and needs 6).
func TestCHNewtonConvergesQuadratically(t *testing.T) {
	sc, _ := Get("bubble")
	for _, p := range []int{1, 2} {
		par.Run(p, func(c *par.Comm) {
			sim := sc.New(c, Smoke)
			for step := 0; step < 4; step++ {
				rep, err := sim.Solver.Step()
				if err != nil {
					panic(err)
				}
				if ch := rep.CH; ch.NewtonIterations > 4 || ch.NewtonContraction < 1e3 {
					panic(fmt.Sprintf("ranks=%d step %d: %d Newton iterations, last contraction %.3g",
						p, step, ch.NewtonIterations, ch.NewtonContraction))
				}
			}
		})
	}
}
