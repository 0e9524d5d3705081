package scenario

import (
	"fmt"
	"runtime"
	"testing"

	"proteus/internal/par"
)

// smokeCounts is the exact work of an 8-step smoke run, as sim.Stats()
// reports it: CH Newton iterations, Jacobians built, chord steps and
// BiCGStab iterations; the NS, PP and VU Krylov totals; adaptation rounds
// and the mesh builds they took (patched, migrate-then-patch, from
// scratch); and the global element count at the end.
type smokeCounts struct {
	newton, jacobians, chords, ch int
	ns, pp, vu                    int
	rounds, incr, migrate, full   int
	elems                         int64
}

// pinnedSmokeCounts holds the counts per scenario and rank count, recorded
// at one worker per rank on amd64 (where Go does not fuse multiply-adds).
var pinnedSmokeCounts = map[string]map[int]smokeCounts{
	"bubble": {
		1: {newton: 24, jacobians: 18, chords: 6, ch: 38, ns: 16, pp: 97, vu: 156, rounds: 3, incr: 1, elems: 184},
		2: {newton: 24, jacobians: 18, chords: 6, ch: 100, ns: 42, pp: 140, vu: 156, rounds: 3, migrate: 1, elems: 184},
	},
	"jet": {
		1: {newton: 17, jacobians: 16, chords: 1, ch: 25, ns: 18, pp: 93, vu: 352, rounds: 3, migrate: 1, elems: 512},
		2: {newton: 17, jacobians: 16, chords: 1, ch: 61, ns: 33, pp: 135, vu: 353, rounds: 3, migrate: 1, elems: 512},
	},
	"rti": {
		1: {newton: 17, jacobians: 16, chords: 1, ch: 31, ns: 17, pp: 99, vu: 164, rounds: 3, full: 1, elems: 202},
		2: {newton: 17, jacobians: 16, chords: 1, ch: 67, ns: 32, pp: 129, vu: 164, rounds: 3, full: 1, elems: 202},
	},
	"spinodal": {
		1: {newton: 16, jacobians: 16, ch: 24, rounds: 3, elems: 64},
		2: {newton: 16, jacobians: 16, ch: 72, rounds: 3, elems: 64},
	},
	"splash": {
		1: {newton: 18, jacobians: 17, chords: 1, ch: 27, ns: 16, pp: 125, vu: 245, rounds: 3, incr: 1, elems: 232},
		2: {newton: 18, jacobians: 17, chords: 1, ch: 83, ns: 39, pp: 166, vu: 245, rounds: 3, migrate: 1, elems: 232},
	},
	"swirl": {
		1: {newton: 26, jacobians: 23, chords: 3, ch: 45, rounds: 1, incr: 1, elems: 148},
		2: {newton: 27, jacobians: 23, chords: 4, ch: 103, rounds: 1, incr: 1, elems: 148},
	},
}

// TestSmokeCountsPinned runs every registered scenario's smoke preset for 8
// steps on 1 and 2 ranks, at one worker per rank, and compares the run's
// counts with the pinned constants exactly. The counts are deterministic at
// a fixed rank and worker count (the fields are bitwise so), so a pin needs
// no tolerance: any drift is a change of the numerics and has to be made on
// purpose, with the pin updated in the same change. The worker count is
// fixed because fields agree only to roundoff across worker counts, and a
// Jacobi-preconditioned PP solve turns roundoff into iterations.
func TestSmokeCountsPinned(t *testing.T) {
	for _, name := range Names() {
		sc, _ := Get(name)
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/r%d", name, ranks), func(t *testing.T) {
				want, ok := pinnedSmokeCounts[name][ranks]
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ranks))
				got := make([]smokeCounts, ranks)
				par.Run(ranks, func(c *par.Comm) {
					sim := sc.New(c, Smoke)
					if err := sim.Run(8); err != nil {
						panic(err)
					}
					st := sim.Stats()
					k := st.KrylovIters
					got[c.Rank()] = smokeCounts{
						newton: k["ch_newton"].Total, jacobians: st.CHJacobians, chords: st.CHChordSteps, ch: k["ch"].Total,
						ns: k["ns"].Total, pp: k["pp"].Total, vu: k["vu"].Total,
						rounds: st.RemeshRounds, incr: st.IncrBuildRounds, migrate: st.MigrateBuildRounds, full: st.FullBuildRounds,
						elems: st.GlobalElems,
					}
				})
				for r, g := range got {
					if !ok || g != want {
						t.Fatalf("rank %d: counts %+v, pinned %+v", r, g, want)
					}
				}
			})
		}
	}
}
