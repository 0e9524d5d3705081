// Command proteus is the simulation driver: a thin CLI over the scenario
// registry and the core run loop. It runs any registered case at a size
// preset on a chosen number of in-process ranks, with periodic VTK
// output, periodic checkpointing, restart from a checkpoint (at any rank
// count), machine-readable run stats, and the Table II configuration
// printout.
//
//	go run ./cmd/proteus -list
//	go run ./cmd/proteus -case bubble -preset bench -steps 10 -ranks 4 -out out/bubble
//	go run ./cmd/proteus -case jet -preset smoke -steps 4 -ckpt out/ck/jet -ckpt-every 2
//	go run ./cmd/proteus -restart out/ck/jet -steps 4 -ranks 2
//	go run ./cmd/proteus -table2
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"proteus/internal/chns"
	"proteus/internal/ckpt"
	"proteus/internal/core"
	"proteus/internal/fault"
	"proteus/internal/par"
	"proteus/internal/scenario"
)

func main() {
	caseName := flag.String("case", "bubble", "registered scenario (see -list)")
	preset := flag.String("preset", "bench", "size preset: smoke | bench | full")
	ranks := flag.Int("ranks", 4, "in-process ranks")
	steps := flag.Int("steps", 8, "time steps to advance in this run")
	wall := flag.Duration("wall", 0, "wall-clock budget (0 = none)")
	out := flag.String("out", "", "VTK output base path (empty disables)")
	vtkEvery := flag.Int("vtk-every", 0, "write VTK every n steps (0: only once at the end when -out is set)")
	ckptBase := flag.String("ckpt", "", "checkpoint base path (empty disables)")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint every n steps (0: only once at the end when -ckpt is set)")
	ckptRetain := flag.Int("ckpt-retain", 3, "snapshot generations to keep under -ckpt (0: keep all)")
	restart := flag.String("restart", "", "restart from this checkpoint base (scenario and preset come from its meta; resolves to the newest intact generation)")
	maxRetries := flag.Int("max-retries", 3, "per-step retries after a solver divergence, each at half the dt (0: fail fast)")
	faults := flag.String("faults", "", "deterministic fault injection spec: point@step[-hi][/stage][/rank=N][/count=N], points ksp|nan|ckpt, entries ';'-separated (testing)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for randomized fault step ranges")
	statsJSON := flag.String("stats-json", "", "dump machine-readable run stats (timers, elem counts, remesh counts) to this path")
	table2 := flag.Bool("table2", false, "print the Table II solver configuration and exit")
	localCahn := flag.Bool("localcahn", true, "enable local-Cahn detection where the scenario uses it")
	pc := flag.String("pc", "", "NS/PP preconditioner: bjacobi (default) | gmg (octree geometric multigrid)")
	warmStarts := flag.Bool("warm-starts", false, "seed the PP/VU Krylov solves from the previous (migrated) solution; same converged tolerance, fewer iterations after remeshes")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole process to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	stopProfiles = startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	if !chns.ValidPC(*pc) {
		fatal(fmt.Errorf("unknown -pc %q (known: bjacobi, gmg)", *pc))
	}
	if *table2 {
		printTable2(*pc)
		return
	}
	if *list {
		for _, n := range scenario.Names() {
			fmt.Println(n)
		}
		return
	}

	name, pr := *caseName, scenario.Preset(*preset)
	var meta ckpt.Meta
	restartBase := ""
	if *restart != "" {
		// Resolve the base to the newest intact snapshot generation,
		// walking past corrupt or truncated ones.
		var err error
		if meta, restartBase, err = ckpt.ReadLatestGood(*restart); err != nil {
			fatal(err)
		}
		name = meta.Scenario
		if name == "" {
			fatal(fmt.Errorf("checkpoint %s does not name a scenario; cannot rebuild its config", *restart))
		}
		if pr, err = scenario.ParsePreset(meta.Preset); err != nil {
			fatal(fmt.Errorf("checkpoint %s: %v", *restart, err))
		}
	} else if _, err := scenario.ParsePreset(*preset); err != nil {
		fatal(err)
	}
	sc, ok := scenario.Get(name)
	if !ok {
		fatal(fmt.Errorf("unknown scenario %q (registered: %v)", name, scenario.Names()))
	}
	spec := sc.Build(pr)
	if *restart != "" {
		// Reproduce the writing run's effective detection setting, not
		// the registry default — a -localcahn override must survive the
		// restart or the resumed trajectory silently changes physics.
		spec.Config.LocalCahn = meta.LocalCahn
	}
	if !*localCahn {
		spec.Config.LocalCahn = false
	}
	if *pc != "" {
		// A solver-path knob: applies on restart too (the checkpoint
		// stores state, not preconditioner choice).
		spec.Config.Opt.PCNS = *pc
		spec.Config.Opt.PCPP = *pc
	}
	if *warmStarts {
		spec.Config.Opt.WarmStarts = true
	}

	par.Run(*ranks, func(c *par.Comm) {
		var sim *core.Simulation
		if *restart != "" {
			var err error
			sim, err = core.Restore(c, spec.Config, restartBase)
			if err != nil {
				panic(err)
			}
		} else {
			sim = sc.NewFromSpec(c, pr, spec)
		}
		if *faults != "" {
			inj, err := fault.Parse(*faults, *faultSeed, c.Rank())
			if err != nil {
				panic(err)
			}
			sim.Fault = inj
		}
		desc := sim.Describe()
		if c.Rank() == 0 {
			fmt.Printf("%s/%s initial: %s\n", name, pr, desc)
		}
		res, err := sim.RunUntil(core.RunOptions{
			Steps:      *steps,
			MaxWall:    *wall,
			CkptEvery:  *ckptEvery,
			CkptBase:   *ckptBase,
			FinalCkpt:  *ckptBase != "",
			CkptRetain: *ckptRetain,
			MaxRetries: *maxRetries,
			VTKEvery:   *vtkEvery,
			VTKBase:    *out,
			FinalVTK:   *out != "",
			OnStep: func(s *core.Simulation) {
				d := s.Describe()
				if c.Rank() == 0 {
					fmt.Println(d)
				}
			},
		})
		if err != nil {
			panic(err)
		}
		st := sim.Stats()
		if c.Rank() == 0 {
			tm := st.Timers
			fmt.Printf("ran %d steps (%s) in %v; stage totals: CH=%v NS=%v PP=%v VU=%v remesh=%v (remeshes=%d, partition-only=%d)\n",
				res.StepsDone, res.Stopped, res.Wall.Round(time.Millisecond),
				tm.CH.Total, tm.NS.Total, tm.PP.Total, tm.VU.Total, tm.Remesh.Total,
				st.RemeshCount, st.PartitionOnlyRounds)
			fmt.Printf("PC set-up: NS=%v (coarse-level assembly %v) PP=%v (coarse-level assembly %v) GMG ladder=%v\n",
				tm.NS.PCSetup, tm.NS.PCSetupLevels, tm.PP.PCSetup, tm.PP.PCSetupLevels, tm.MGLadder)
			nwt := st.KrylovIters["ch_newton"]
			fmt.Printf("CH Newton iterations per step: mean %.2f (min %d, max %d)\n", nwt.Mean, nwt.Min, nwt.Max)
			fmt.Printf("CH Jacobians: %d assembled and factored, %d Newton iterations were chord steps on the previous one\n", st.CHJacobians, st.CHChordSteps)
			fmt.Printf("CH element blocks: %d sweeps integrated K_m, %d reused it\n", st.CHBlockFills, st.CHBlockReuses)
			if *out != "" {
				fmt.Printf("wrote %s.pvtu\n", *out)
			}
			if *ckptBase != "" {
				fmt.Printf("checkpoint at %s (step %d)\n", *ckptBase, st.Step)
			}
			if st.Retries > 0 || st.CkptFallbacks > 0 {
				fmt.Printf("recovered from %d divergences (%d retries, %d checkpoint fallbacks)\n",
					len(st.Recovery), st.Retries, st.CkptFallbacks)
				for _, ev := range st.Recovery {
					fmt.Printf("  step %d: %s/%s -> dt %g (retry %d)\n", ev.Step, ev.Stage, ev.Kind, ev.Dt, ev.Retry)
				}
			}
			if *statsJSON != "" {
				if err := core.WriteStatsJSON(*statsJSON, st); err != nil {
					panic(err)
				}
				fmt.Printf("wrote %s\n", *statsJSON)
			}
		}
	})
}

// stopProfiles finishes the -cpuprofile/-memprofile outputs. Exactly one
// of two callers runs it: main's defer (normal return and rank panics) or
// fatal, because os.Exit runs no deferred call.
var stopProfiles = func() {}

// startProfiles starts the CPU profile and returns the function that stops
// it and writes the heap profile.
func startProfiles(cpuPath, memPath string) func() {
	var cpu *os.File
	if cpuPath != "" {
		var err error
		if cpu, err = os.Create(cpuPath); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "proteus: -cpuprofile:", err)
			}
		}
		if memPath == "" {
			return
		}
		mem, err := os.Create(memPath)
		if err == nil {
			runtime.GC() // up-to-date allocation statistics
			err = pprof.WriteHeapProfile(mem)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "proteus: -memprofile:", err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "proteus:", err)
	stopProfiles()
	os.Exit(2)
}

func printTable2(pc string) {
	nspp := pc
	if nspp == "" {
		nspp = "bjacobi"
	}
	fmt.Println("Table II — solver and preconditioner per stage (as configured):")
	fmt.Printf("%-10s %-8s %-10s\n", "stage", "solver", "pc")
	fmt.Printf("%-10s %-8s %-10s\n", "CH solve", "bcgs", "bjacobi")
	fmt.Printf("%-10s %-8s %-10s\n", "NS solve", "bcgs", nspp)
	fmt.Printf("%-10s %-8s %-10s\n", "PP solve", "ibcgs", nspp)
	fmt.Printf("%-10s %-8s %-10s\n", "VU solve", "cg", "jacobi")
	fmt.Println("\nTolerances: linear 1e-8, nonlinear 1e-10 (paper Sec. IV-D). NS, PP and VU")
	fmt.Println("solve every system to 1e-8. CH is an inexact Newton method: 1e-8 is the")
	fmt.Println("floor of its forcing sequence (the tightest an inner solve goes), the")
	fmt.Println("accepted solution is set by the nonlinear 1e-10 alone.")
}
