package chns_test

import (
	"fmt"
	"testing"

	"proteus/internal/par"
	"proteus/internal/scenario"
)

// TestOnePatternPerMesh: on bubble and jet smoke runs at 1 and 2 ranks,
// after the first step and after the first step on an incrementally
// rebuilt mesh, the CH, NS, PP and VU operators hold one node-block
// Sparsity (the solver's assemblers are siblings on one plan) and the CH,
// NS and PP block-Jacobi factors hold one ILU(0) index (derived once from
// that Sparsity).
func TestOnePatternPerMesh(t *testing.T) {
	for _, name := range []string{"bubble", "jet"} {
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/p=%d", name, ranks), func(t *testing.T) {
				sc, _ := scenario.Get(name)
				par.Run(ranks, func(c *par.Comm) {
					sim := sc.New(c, scenario.Smoke)
					check := func(when string) {
						sps, idx := sim.Solver.Structure()
						for i, sp := range sps {
							if sp == nil || sp != sps[0] {
								panic(fmt.Sprintf("%s p=%d rank=%d %s: stage %d operator pattern %p, CH's %p", name, ranks, c.Rank(), when, i, sp, sps[0]))
							}
						}
						for i, ix := range idx {
							if ix == 0 || ix != idx[0] {
								panic(fmt.Sprintf("%s p=%d rank=%d %s: stage %d factor index %#x, CH's %#x", name, ranks, c.Rank(), when, i, ix, idx[0]))
							}
						}
					}
					if err := sim.Step(); err != nil {
						panic(err)
					}
					check("after step 1")
					incr := func() int { st := sim.Stats(); return st.IncrBuildRounds + st.MigrateBuildRounds }
					for n := incr(); incr() == n; {
						if sim.StepIndex > 12 {
							panic(fmt.Sprintf("%s p=%d: no incremental remesh in 12 steps", name, ranks))
						}
						if err := sim.Step(); err != nil {
							panic(err)
						}
					}
					check("after an incremental remesh")
				})
			})
		}
	}
}
