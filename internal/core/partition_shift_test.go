package core

import (
	"fmt"
	"testing"

	"proteus/internal/par"
)

// TestMigratePatchBitwiseEquivalence pins migrate-then-patch ≡ from-scratch
// end to end: with the dirty-fraction gate wide open, a remesh-every-step
// run whose SFC partition drifts (the load follows the swirling drop, so
// PartitionWeighted moves the splitters at p > 1) must be bitwise identical
// to the always-full oracle at every per-rank worker count — and the
// migrate route must actually have engaged on the rounds the oracle
// rebuilt.
func TestMigratePatchBitwiseEquivalence(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, w := range workerCounts {
			atWorkers(p, w, func() {
				par.Run(p, func(c *par.Comm) {
					mig := runSwirl(c, remeshNeverFull, 4)
					full := runSwirl(c, remeshAlwaysFull, 4)
					mustIdenticalRuns(c, mig, full)

					st := mig.T.RemeshStages
					fst := full.T.RemeshStages
					if p > 1 {
						// The drop run provably shifts splitters, so migrations occur;
						// every structural round the oracle rebuilt is a patch or a
						// migrate-then-patch here.
						if st.MigrateBuild == 0 || st.Migrate <= 0 {
							panic(fmt.Sprintf("p=%d: migrate-then-patch never engaged: %+v", p, st))
						}
						if st.IncrBuild+st.MigrateBuild != fst.FullDirtyFrac {
							panic(fmt.Sprintf("p=%d: %d patched + %d migrated rounds, the oracle rebuilt %d",
								p, st.IncrBuild, st.MigrateBuild, fst.FullDirtyFrac))
						}
					} else if st.MigrateBuild != 0 {
						panic(fmt.Sprintf("p=1: single-rank splitters cannot move, yet MigrateBuild=%d", st.MigrateBuild))
					}
				})
			})
		}
	}
}

// TestPartitionShiftRemeshSmoke is the CI engagement guard at real rank
// counts: below the dirty-fraction threshold no round may fall back to a
// from-scratch build for partition reasons — every structural round is a
// patch or a migrate-then-patch, and migrations genuinely occur.
func TestPartitionShiftRemeshSmoke(t *testing.T) {
	for _, p := range []int{2, 4} {
		par.Run(p, func(c *par.Comm) {
			sim := runSwirl(c, remeshNeverFull, 4)
			st := sim.T.RemeshStages
			if st.MigrateBuild == 0 {
				panic(fmt.Sprintf("p=%d: migrate-then-patch never engaged: %+v", p, st))
			}
			// Zero full rebuilds below the threshold: the only permitted
			// full builds are pure-repartition rounds (which migrate fields
			// exactly and never enter the patch machinery).
			if st.FullBuild != st.FullPartitionOnly || st.FullDirtyFrac != 0 {
				panic(fmt.Sprintf("p=%d: %d full rebuilds beyond the %d pure-repartition rounds: %+v",
					p, st.FullBuild, st.FullPartitionOnly, st))
			}
		})
	}
}
