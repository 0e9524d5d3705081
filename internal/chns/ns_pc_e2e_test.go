package chns_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"proteus/internal/chns"
	"proteus/internal/core"
	"proteus/internal/fault"
	"proteus/internal/par"
	"proteus/internal/scenario"
)

// TestNSBlocksAreScalarTimesIdentity checks the precondition the NS
// preconditioner is built on: after assembly and no-slip pinning every
// stored block of the owned momentum rows is a·I_dim — cross-component
// entries zero, the dim diagonal entries bitwise equal — so the matrix is
// A ⊗ I_dim and factoring A alone loses nothing. Checked after every step
// of 8-step bubble (2D) and jet (3D) smoke runs on 1 and 2 ranks, which
// remesh on the way. A kernel that un-lumps the viscous cross-coupling
// fails here first.
func TestNSBlocksAreScalarTimesIdentity(t *testing.T) {
	for _, name := range []string{"bubble", "jet"} {
		for _, ranks := range []int{1, 2} {
			sc, _ := scenario.Get(name)
			par.Run(ranks, func(c *par.Comm) {
				sim := sc.New(c, scenario.Smoke)
				checked := 0
				_, err := sim.RunUntil(core.RunOptions{Steps: 8, OnStep: func(sim *core.Simulation) {
					mat := sim.Solver.NSMatrix()
					bs, sp, vals := mat.Bs, mat.Sparsity(), mat.Vals()
					if bs != sim.Mesh.Dim {
						panic(fmt.Sprintf("%s: NS block size %d in %dD", name, bs, sim.Mesh.Dim))
					}
					for rn := 0; rn < mat.NRowNodes; rn++ {
						for j := sp.Indptr[rn]; j < sp.Indptr[rn+1]; j++ {
							blk := vals[int(j)*bs*bs:][:bs*bs]
							for i, v := range blk {
								if d, e := i/bs, i%bs; d != e && v != 0 ||
									d == e && math.Float64bits(v) != math.Float64bits(blk[0]) {
									panic(fmt.Sprintf("%s ranks=%d rank %d step %d: block (%d,%d) = %v is not a·I",
										name, ranks, c.Rank(), sim.StepIndex, rn, sp.Cols[j], blk))
								}
							}
						}
					}
					if sim.RemeshCount > 0 {
						checked++
					}
				}})
				if err != nil {
					panic(err)
				}
				if checked == 0 {
					panic(fmt.Sprintf("%s ranks=%d: no step checked after a remesh", name, ranks))
				}
			})
		}
	}
}

// nsRun is what a short faulted run leaves behind on one rank.
type nsRun struct {
	its             [5]int // CH/NS/PP/VU Krylov totals, CH Newton total
	phiMu, vel, pre []float64
	stats           core.RunStats
	crossedRemesh   bool // the rollback rebuilt the mesh: a generation the run did not keep
}

// runNSPC runs a scenario's smoke preset for 8 steps at w workers per rank
// with an injected NS divergence at faultStep, rolled back and retried at
// half dt: on step 3 the rollback keeps the mesh, on step 2 the failed
// attempt had remeshed, so the rollback rebuilds the snapshot's mesh. Both
// cases remesh on the way, so the NS PC is built cold, refreshed, and
// re-keyed across incremental rebinds. expanded makes the NS PC factor the
// scalar expansion of the momentum matrix (the oracle).
func runNSPC(name string, ranks, w, faultStep int, expanded bool) []nsRun {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ranks * w))
	sc, _ := scenario.Get(name)
	out := make([]nsRun, ranks)
	par.Run(ranks, func(c *par.Comm) {
		sim := sc.New(c, scenario.Smoke)
		sim.Solver.SetNSExpandedPC(expanded)
		sim.Fault = fault.New(1, c.Rank(), fault.Fault{Point: fault.KSPDiverge, Step: faultStep, Stage: "ns"})
		if _, err := sim.RunUntil(core.RunOptions{Steps: 8, MaxRetries: 2, RelaxAfter: 2}); err != nil {
			panic(err)
		}
		st, s := sim.Stats(), sim.Solver
		t := st.Timers
		out[c.Rank()] = nsRun{
			its:   [5]int{t.CH.Iterations, t.NS.Iterations, t.PP.Iterations, t.VU.Iterations, t.CH.Newton},
			phiMu: s.PhiMu, vel: s.Vel, pre: s.P, stats: st,
			crossedRemesh: sim.MeshEpoch > uint64(sim.RemeshCount),
		}
	})
	return out
}

// TestNSKronPCBitwiseEndToEnd: bubble and jet smoke runs that remesh and
// roll one NS step back — on the same mesh, or across a remesh — take the
// same iterations and end in the same field bits on 1 and 2 ranks at 1 and
// 2 workers per rank, whether the NS PC factors the scalar momentum
// operator and sweeps every velocity component at once, or factors the
// matrix's full scalar expansion.
func TestNSKronPCBitwiseEndToEnd(t *testing.T) {
	for _, name := range []string{"bubble", "jet"} {
		for _, ranks := range []int{1, 2} {
			for _, w := range []int{1, 2} {
				for _, faultStep := range []int{3, 2} {
					kron := runNSPC(name, ranks, w, faultStep, false)
					full := runNSPC(name, ranks, w, faultStep, true)
					for r := range kron {
						what := fmt.Sprintf("%s ranks=%d workers=%d faultStep=%d rank %d", name, ranks, w, faultStep, r)
						a, b := kron[r], full[r]
						if a.its != b.its || a.its[1] == 0 {
							t.Fatalf("%s: iteration totals CH/NS/PP/VU/Newton %v vs expanded %v", what, a.its, b.its)
						}
						st := a.stats
						patched := st.IncrBuildRounds + st.MigrateBuildRounds
						if st.Retries != 1 || patched == 0 || a.crossedRemesh != (faultStep == 2) {
							t.Fatalf("%s: %d retries, %d patched mesh builds, rollback across a remesh %v: the paths under test did not run",
								what, st.Retries, patched, a.crossedRemesh)
						}
						for field, pair := range map[string][2][]float64{"PhiMu": {a.phiMu, b.phiMu}, "Vel": {a.vel, b.vel}, "P": {a.pre, b.pre}} {
							if d := chns.BitsDiff(pair[0], pair[1]); d != "" {
								t.Fatalf("%s: %s with the scalar-operator PC vs expanded: %s", what, field, d)
							}
						}
					}
				}
			}
		}
	}
}
