// Package proteus_test holds the whole-pipeline benchmarks of Saurabh et
// al. (IPDPS 2023): Figs. 5, 6, 7 and 9, Table II, the remesh pipeline
// and the post-remesh solves. Absolute numbers reflect the in-process
// runtime on a laptop-scale problem, not TACC Frontera; the shapes — which
// variant wins, by roughly what factor, and where the crossovers fall —
// are the reproduction targets (see EXPERIMENTS.md). Each benchmark that
// measures one package's algorithm against its paper baseline lives next
// to that package, with the baseline in the same _test.go file: Table I's
// matrix columns in internal/chns, its Remesh row and the batched
// transfer in internal/transfer, the refine/coarsen ablation in
// internal/octree, the distributed sort in internal/dsort, and the
// communicator split and sparse exchange in internal/par.
//
//	go test -bench=. -benchmem
package proteus_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"proteus/internal/chns"
	"proteus/internal/core"
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// ---------------------------------------------------------------------------
// Remesh pipeline — the Table I "Remesh" column / Fig. 7 treatment: the
// full remesh round with its detect/refine/coarsen/balance/partition/
// build/transfer split.
// ---------------------------------------------------------------------------

// benchRemeshPipeline drives a remesh-every-step swirling-drop run and
// reports the per-round remesh wall-clock split into its pipeline stages,
// plus the incremental-remesh accounting (how many rounds took the ripple
// balance and the mesh patch versus their from-scratch fallbacks).
func benchRemeshPipeline(b *testing.B, ranks int) {
	swirl := func(x, y, z, t float64) (float64, float64, float64) {
		sx := math.Sin(math.Pi * x)
		sy := math.Sin(math.Pi * y)
		return 2 * sx * sx * sy * math.Cos(math.Pi*y), -2 * sx * math.Cos(math.Pi*x) * sy * sy, 0
	}
	var t chns.Timers
	for i := 0; i < b.N; i++ {
		prm := chns.DefaultParams()
		prm.Cn = 0.03
		prm.Pe = 1000
		cfg := core.Config{
			Dim: 2, Params: prm, Opt: chns.DefaultOptions(2e-3),
			BulkLevel: 4, InterfaceLevel: 6,
			RemeshEvery: 1, PrescribedVel: swirl,
		}
		par.Run(ranks, func(c *par.Comm) {
			sim := core.New(c, cfg, func(x, y, z float64) float64 {
				return chns.EquilibriumProfile(math.Hypot(x-0.5, y-0.7)-0.15, prm.Cn)
			})
			sim.Run(6)
			if c.Rank() == 0 {
				t = sim.Timers()
			}
		})
	}
	rs := t.RemeshStages
	rounds := float64(rs.Rounds)
	if rounds == 0 {
		rounds = 1
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / rounds / 1000 }
	b.ReportMetric(float64(t.Remesh.Total.Microseconds())/rounds/1000, "remesh-ms")
	b.ReportMetric(ms(rs.Detect), "detect-ms")
	b.ReportMetric(ms(rs.Refine), "refine-ms")
	b.ReportMetric(ms(rs.Coarsen), "coarsen-ms")
	b.ReportMetric(ms(rs.Balance), "balance-ms")
	b.ReportMetric(ms(rs.Partition), "partition-ms")
	b.ReportMetric(ms(rs.Build), "build-ms")
	b.ReportMetric(ms(rs.Transfer), "transfer-ms")
	b.ReportMetric(ms(rs.Migrate), "migrate-ms")
	// What the incremental machinery pays per round: balance + build + the
	// exact view migration (a sub-share of transfer).
	b.ReportMetric(ms(rs.Balance)+ms(rs.Build)+ms(rs.Migrate), "incr-cost-ms")
	b.ReportMetric(float64(rs.Rounds), "rounds")
	b.ReportMetric(float64(rs.PartitionOnly), "partition-only-rounds")
	b.ReportMetric(float64(rs.IncrBalance), "incr-balance-rounds")
	b.ReportMetric(float64(rs.IncrBuild), "incr-build-rounds")
	b.ReportMetric(float64(rs.MigrateBuild), "migrate-build-rounds")
	b.ReportMetric(float64(rs.FullBuild), "full-build-rounds")
	b.ReportMetric(float64(rs.FullPartitionOnly), "full-partition-rounds")
	b.ReportMetric(float64(rs.FullDirtyFrac), "full-dirty-rounds")
	b.ReportMetric(float64(rs.RippleRounds), "ripple-rounds")
	if rs.TotalOctants > 0 {
		b.ReportMetric(float64(rs.DirtyOctants)/float64(rs.TotalOctants), "dirty-frac")
	}
}

// Serial, every round is partition-stable and the mesh patch engages on
// each one; at 4 ranks the stretching interface grows the element count
// every round and PartitionWeighted chases the moving load, so the SFC
// splitters shift and rounds go through migrate-then-patch. balance-ms,
// build-ms and incr-cost-ms are the numbers EXPERIMENTS.md compares with the
// from-scratch ablations it recorded before their knobs were removed.
func BenchmarkRemeshPipeline_Incremental(b *testing.B) { benchRemeshPipeline(b, 1) }
func BenchmarkRemeshPipeline_Batched(b *testing.B)     { benchRemeshPipeline(b, 4) }

// ---------------------------------------------------------------------------
// Post-remesh solves (PR 10) — remesh-aware MG refresh and warm starts. Warm and cold differ only in the Krylov
// initial guess of the PP and VU solves on the first step after each
// remesh (the convergence target is relative to the RHS either way); the
// reported post-remesh per-stage iteration means are the acceptance
// metric, alongside the MG carry-over counter both runs share.
// ---------------------------------------------------------------------------

func benchPostRemeshSolve(b *testing.B, warm bool) {
	var st core.RunStats
	for i := 0; i < b.N; i++ {
		prm := chns.DefaultParams()
		prm.Cn = 0.08
		prm.Fr = 0.5
		opt := chns.DefaultOptions(1e-3)
		opt.WarmStarts = warm
		cfg := core.Config{
			Dim: 2, Params: prm, Opt: opt,
			BulkLevel: 3, InterfaceLevel: 5,
			RemeshEvery: 1,
		}
		par.Run(2, func(c *par.Comm) {
			sim := core.New(c, cfg, func(x, y, z float64) float64 {
				return chns.EquilibriumProfile(math.Hypot(x-0.5, y-0.4)-0.18, prm.Cn)
			})
			if err := sim.Run(10); err != nil {
				panic(err)
			}
			rs := sim.Stats() // collective
			if c.Rank() == 0 {
				st = rs
			}
		})
	}
	for _, stage := range []string{"ch", "ns", "pp", "vu"} {
		b.ReportMetric(st.PostRemeshIters[stage], "post-"+stage+"-its")
	}
	b.ReportMetric(float64(st.PostRemeshSteps), "post-steps")
	b.ReportMetric(float64(st.MGLevelsReused+st.MGLevelsPatched), "mg-levels-carried")
}

func BenchmarkPostRemeshSolve_Warm(b *testing.B) { benchPostRemeshSolve(b, true) }
func BenchmarkPostRemeshSolve_Cold(b *testing.B) { benchPostRemeshSolve(b, false) }

// ---------------------------------------------------------------------------
// Table II — solver/preconditioner configuration. The table itself is a
// configuration statement; this benchmark verifies each configured pair
// converges on its stage's system and reports the iteration counts.
// ---------------------------------------------------------------------------

// bubbleSim is a 3D rising bubble (Table II) with the given NS/PP
// preconditioner ("" = the bjacobi default).
func bubbleSim(c *par.Comm, pc string) *core.Simulation {
	p := chns.DefaultParams()
	p.Cn = 0.1
	p.Fr = 0.5
	opt := chns.DefaultOptions(1e-3)
	opt.PCNS, opt.PCPP = pc, pc
	cfg := core.Config{
		Dim: 3, Params: p, Opt: opt,
		BulkLevel: 2, InterfaceLevel: 3, // scaled from the paper's 6/11
		RemeshEvery: 1 << 30, // remesh benchmarked separately
	}
	return core.New(c, cfg, func(x, y, z float64) float64 {
		r := math.Sqrt((x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.4)*(z-0.4))
		return chns.EquilibriumProfile(r-0.2, p.Cn)
	})
}

func benchTableII(b *testing.B, pc string) {
	var ks map[string]core.IterStats
	for i := 0; i < b.N; i++ {
		par.Run(2, func(c *par.Comm) {
			sim := bubbleSim(c, pc)
			sim.Run(2)
			st := sim.Stats()
			if c.Rank() == 0 {
				ks = st.KrylovIters
			}
		})
	}
	// Per-stage Krylov iteration spread over the run's solves — the
	// numbers the paper's Table II configures each stage to minimize.
	for _, stage := range []string{"ch", "ch_newton", "ns", "pp", "vu"} {
		is := ks[stage]
		b.ReportMetric(float64(is.Min), stage+"-its-min")
		b.ReportMetric(is.Mean, stage+"-its-mean")
		b.ReportMetric(float64(is.Max), stage+"-its-max")
	}
}

// The default pairing (Table II: bjacobi/ILU0 on NS and PP) against the
// octree geometric multigrid V-cycle on the same stages.
func BenchmarkTableII_SolverConfig(b *testing.B) { benchTableII(b, "") }
func BenchmarkTableII_SolverGMG(b *testing.B)    { benchTableII(b, chns.PCGMG) }

// ---------------------------------------------------------------------------
// Fig. 5 — swirling-flow drop: coarse constant Cn fragments, fine constant
// Cn stays intact but costs more, local Cn stays intact at a fraction of
// the cost. Reported metrics: drop count and element count.
// ---------------------------------------------------------------------------

func benchFig5(b *testing.B, interfaceLevel, fineLevel int, cn, fineCn float64, local bool) {
	swirl := func(x, y, z, t float64) (float64, float64, float64) {
		sx := math.Sin(math.Pi * x)
		sy := math.Sin(math.Pi * y)
		return 2 * sx * sx * sy * math.Cos(math.Pi*y), -2 * sx * math.Cos(math.Pi*x) * sy * sy, 0
	}
	var drops int
	var elems int64
	for i := 0; i < b.N; i++ {
		p := chns.DefaultParams()
		p.Cn = cn
		p.Pe = 1000
		cfg := core.Config{
			Dim: 2, Params: p, Opt: chns.DefaultOptions(2.5e-3),
			BulkLevel: 3, InterfaceLevel: interfaceLevel, FineLevel: fineLevel,
			LocalCahn: local, FineCn: fineCn, Delta: -0.5,
			RemeshEvery: 4, PrescribedVel: swirl,
		}
		par.Run(4, func(c *par.Comm) {
			sim := core.New(c, cfg, func(x, y, z float64) float64 {
				return chns.EquilibriumProfile(math.Hypot(x-0.5, y-0.75)-0.15, cn)
			})
			sim.Run(16)
			d := sim.CountDrops(-0.3)
			e := sim.GlobalElems()
			if c.Rank() == 0 {
				drops, elems = d, e
			}
		})
	}
	b.ReportMetric(float64(drops), "drops")
	b.ReportMetric(float64(elems), "elements")
}

func BenchmarkFig5_CoarseCn(b *testing.B) { benchFig5(b, 5, 5, 0.02, 0.02, false) }
func BenchmarkFig5_FineCn(b *testing.B)   { benchFig5(b, 6, 6, 0.008, 0.008, false) }
func BenchmarkFig5_LocalCn(b *testing.B)  { benchFig5(b, 5, 6, 0.02, 0.008, true) }

// ---------------------------------------------------------------------------
// Fig. 6 — MATVEC strong and weak scaling over in-process ranks.
// ---------------------------------------------------------------------------

// interfaceTree builds an interface-refined adaptive tree with roughly
// the requested element count.
func interfaceTree(dim, base, fine int) *octree.Tree {
	return octree.Build(dim, func(o sfc.Octant) bool {
		if int(o.Level) < base {
			return true
		}
		if int(o.Level) >= fine {
			return false
		}
		s := float64(o.Side()) / float64(sfc.MaxCoord)
		x := float64(o.X)/float64(sfc.MaxCoord) + s/2
		y := float64(o.Y)/float64(sfc.MaxCoord) + s/2
		d := math.Hypot(x-0.5, y-0.5)
		return math.Abs(d-0.3) < 0.05
	}, fine, nil).Balance21(nil)
}

func matvecTime(p int, tree *octree.Tree, reps int) time.Duration {
	var dt time.Duration
	par.Run(p, func(c *par.Comm) {
		n := tree.Len()
		lo, hi := c.Rank()*n/p, (c.Rank()+1)*n/p
		local := make([]sfc.Octant, hi-lo)
		copy(local, tree.Leaves[lo:hi])
		m := mesh.New(c, 2, local)
		in := m.NewVec(1)
		out := m.NewVec(1)
		for i := range in {
			in[i] = float64(i%7) - 3
		}
		kern := func(e int, h float64, ein, eout []float64) {
			// Lumped mass + neighbour mixing: a representative cheap kernel.
			f := h * h / 4
			var avg float64
			for _, v := range ein {
				avg += v
			}
			avg /= float64(len(ein))
			for i := range eout {
				eout[i] = f * (ein[i] + avg)
			}
		}
		c.Barrier()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			m.MatVec(in, out, 1, kern)
		}
		c.Barrier()
		if c.Rank() == 0 {
			dt = time.Since(t0) / time.Duration(reps)
		}
	})
	return dt
}

func BenchmarkFig6_StrongMatvec(b *testing.B) {
	tree := interfaceTree(2, 6, 9) // fixed global problem
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			var dt time.Duration
			for i := 0; i < b.N; i++ {
				dt = matvecTime(p, tree, 3)
			}
			b.ReportMetric(float64(dt.Microseconds())/1000, "matvec-ms")
			b.ReportMetric(float64(tree.Len()), "elements")
		})
	}
}

func BenchmarkFig6_WeakMatvec(b *testing.B) {
	// Fixed grain: one level deeper per 4x ranks keeps elements/rank
	// constant for the band-refined 2D mesh.
	for i, p := range []int{1, 4, 16} {
		tree := interfaceTree(2, 4, 8+i)
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			var dt time.Duration
			for j := 0; j < b.N; j++ {
				dt = matvecTime(p, tree, 3)
			}
			b.ReportMetric(float64(dt.Microseconds())/1000, "matvec-ms")
			b.ReportMetric(float64(tree.Len()/p), "grain-elems-per-rank")
		})
	}
}

// ---------------------------------------------------------------------------
// Fig. 7 — full-framework scaling: per-stage times and percentage
// breakdown versus rank count on a fixed problem.
// ---------------------------------------------------------------------------

func BenchmarkFig7_Application(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			var t chns.Timers
			for i := 0; i < b.N; i++ {
				par.Run(p, func(c *par.Comm) {
					prm := chns.DefaultParams()
					prm.Cn = 0.05
					prm.Fr = 0.5
					cfg := core.Config{
						Dim: 2, Params: prm, Opt: chns.DefaultOptions(1e-3),
						BulkLevel: 4, InterfaceLevel: 6,
						RemeshEvery: 2,
					}
					sim := core.New(c, cfg, func(x, y, z float64) float64 {
						return chns.EquilibriumProfile(math.Hypot(x-0.5, y-0.4)-0.2, prm.Cn)
					})
					sim.Run(4) // includes remeshes at steps 2 and 4
					if c.Rank() == 0 {
						t = sim.Timers()
					}
				})
			}
			tot := t.CH.Total + t.NS.Total + t.PP.Total + t.VU.Total + t.Remesh.Total
			b.ReportMetric(float64(t.CH.Total.Microseconds())/1000, "ch-ms")
			b.ReportMetric(float64(t.NS.Total.Microseconds())/1000, "ns-ms")
			b.ReportMetric(float64(t.PP.Total.Microseconds())/1000, "pp-ms")
			b.ReportMetric(float64(t.VU.Total.Microseconds())/1000, "vu-ms")
			b.ReportMetric(float64(t.Remesh.Total.Microseconds())/1000, "remesh-ms")
			if tot > 0 {
				b.ReportMetric(100*float64(t.PP.Total)/float64(tot), "pp-pct")
				b.ReportMetric(100*float64(t.Remesh.Total)/float64(tot), "remesh-pct")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Fig. 9 — element-fraction-per-level histogram of a feature-refined jet
// mesh: the finest level holds the largest element fraction while covering
// a tiny volume fraction.
// ---------------------------------------------------------------------------

func BenchmarkFig9_LevelHistogram(b *testing.B) {
	var frac []float64
	var volFinest float64
	for i := 0; i < b.N; i++ {
		// Jet-like geometry: refine near a perturbed cylinder surface,
		// deepest at the pinch points.
		tr := octree.Build(3, func(o sfc.Octant) bool {
			if int(o.Level) < 2 {
				return true
			}
			s := float64(o.Side()) / float64(sfc.MaxCoord)
			x := float64(o.X)/float64(sfc.MaxCoord) + s/2
			y := float64(o.Y)/float64(sfc.MaxCoord) + s/2
			z := float64(o.Z)/float64(sfc.MaxCoord) + s/2
			r := math.Hypot(y-0.5, z-0.5)
			rad := 0.1 + 0.035*math.Cos(4*math.Pi*x)
			dist := math.Abs(r - rad)
			switch {
			case int(o.Level) < 4:
				return dist < 0.1
			case int(o.Level) < 6:
				// Deepest only near the thinning necks.
				return dist < 0.03 && math.Abs(math.Cos(4*math.Pi*x)+1) < 0.2
			default:
				return false
			}
		}, 6, nil).Balance21(nil)
		frac = tr.LevelHistogram()
		volFinest = tr.VolumeFractionAtLevel(6)
	}
	for l, f := range frac {
		if f > 0 {
			b.ReportMetric(f, fmt.Sprintf("frac-level-%d", l))
		}
	}
	b.ReportMetric(volFinest*100, "finest-volume-pct")
}
