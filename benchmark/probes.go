package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"proteus/internal/blas"
	"proteus/internal/core"
	"proteus/internal/detect"
	"proteus/internal/fem"
	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/mg"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
	"proteus/internal/transfer"
)

// prober repeats one public call of a layer, collectively on every rank,
// until it has run for minTime and minReps times, and reports the median
// wall-clock of a call as rank 0 timed it between barriers.
type prober struct {
	c       *par.Comm
	minTime time.Duration
	minReps int
}

func (p prober) seconds(f func()) float64 {
	var times []float64
	start := time.Now()
	for {
		p.c.Barrier()
		t0 := time.Now()
		f()
		p.c.Barrier()
		times = append(times, time.Since(t0).Seconds())
		// Rank 0's clock decides, so every rank stops after the same call.
		done := len(times) >= p.minReps && time.Since(start) >= p.minTime
		if par.Bcast(p.c, 0, done) {
			return median(times)
		}
	}
}

func globalCount(m *mesh.Mesh, n int) float64 { return m.GlobalSum(float64(n)) }

// runProbes measures every layer below chns on the workload's end-state
// mesh and fields and stores the results in ms. Collective.
func runProbes(c *par.Comm, sim *core.Simulation, smoke bool, ms metricSet) {
	p := prober{c: c, minTime: 200 * time.Millisecond, minReps: 5}
	if smoke {
		p = prober{c: c, minTime: time.Millisecond, minReps: 2}
	}
	m := sim.Mesh
	elems := globalCount(m, m.NumElems())
	probeFemLa(p, m, elems, ms)
	probeMG(p, m, ms)
	probeMesh(p, m, elems, ms)
	probeOctree(p, m, elems, ms)
	probeTransfer(p, sim, ms)
	probeDetect(p, sim, elems, ms)
	probePar(p, m, ms)
	probeIO(c, sim, ms)
	probeKernels(p, m, ms)
}

// probeDt is the time step of the probe operator M + dt K.
const probeDt = 1e-3

// probeFemLa assembles a 2-dof block operator, diag(M + dt K, M + dt K)
// with an off-diagonal 0.3 M coupling, through the zipped (stage 2) path —
// cold on a fresh Assembler, then warm — and runs SpMV, ILU(0) and
// BiCGStab on it, all on the worker pool the stage solves use.
func probeFemLa(p prober, m *mesh.Mesh, elems float64, ms metricSet) {
	const ndof = 2
	asm := fem.NewAssembler(m, ndof)
	pool := par.NewPool(asm.Workers())
	defer pool.Close()
	asm.SetPool(pool)
	r := asm.Ref
	tmp := make([][]float64, asm.Workers())
	for i := range tmp {
		tmp[i] = make([]float64, r.NPE*r.NPE)
	}
	kern := func(a *fem.Assembler) fem.ZippedKernel {
		return func(w, e int, h float64, out [][]float64) {
			wk := a.WorkN(w)
			r.MassGemm(wk, h, 1, nil, out[0])
			r.StiffGemm(wk, h, probeDt, nil, tmp[w])
			for i, v := range tmp[w] {
				out[0][i] += v
			}
			copy(out[3], out[0])
			r.MassGemm(wk, h, 0.3, nil, out[1])
			for i := range out[2] {
				out[2][i] = 0
			}
		}
	}
	cold := p.seconds(func() {
		a := fem.NewAssembler(m, ndof)
		a.SetPool(pool)
		a.AssembleMatrixZipped(a.NewMatrix(fem.LayoutZipped), kern(a))
	})
	ms["fem.asm_cold_elems_per_s"] = elems / cold
	mat := asm.NewMatrix(fem.LayoutZipped)
	mat.SetPool(pool)
	warmKern := kern(asm)
	asm.AssembleMatrixZipped(mat, warmKern)
	warm := p.seconds(func() {
		mat.Zero()
		asm.AssembleMatrixZipped(mat, warmKern)
	})
	ms["fem.asm_warm_elems_per_s"] = elems / warm
	ms["fem.plan_entries"] = globalCount(m, asm.Plan(fem.LayoutZipped).Entries())

	ones := make([]float64, r.NPE)
	for i := range ones {
		ones[i] = 1
	}
	b := m.NewVec(ndof)
	vecKern := func(w, e int, h float64, fe []float64) { r.LoadVector(h, ones, 1, fe) }
	asm.AssembleVectorPlanned(b, vecKern)
	vec := p.seconds(func() { asm.AssembleVectorPlanned(b, vecKern) })
	ms["fem.vec_warm_elems_per_s"] = elems / vec

	// SpMV: bytes are computed from the array sizes (block values, one
	// column index per block, x read and y written once), not measured;
	// at these sizes the operator is cache-resident.
	x, y := m.NewVec(ndof), m.NewVec(ndof)
	for i := range x {
		x[i] = math.Sin(0.01 * float64(i))
	}
	bytes := globalCount(m, mat.NNZBlocks()*(ndof*ndof*8+4)+2*mat.Rows()*8)
	spmv := p.seconds(func() { mat.Apply(x, y) })
	ms["la.spmv_gbs"] = bytes / spmv / 1e9
	withPool(m.Comm, func(shared *par.Pool) {
		mat.SetPool(shared)
		ms["la.spmv_pool_speedup"] = spmv / p.seconds(func() { mat.Apply(x, y) })
		mat.SetPool(pool)
	})

	krows := globalCount(m, mat.Rows()) / 1000
	var ilu *la.PCBJacobiILU0
	setup := p.seconds(func() { ilu = la.NewPCBJacobiILU0(mat) })
	ms["la.ilu_setup_us_per_krow"] = setup * 1e6 / krows
	apply := p.seconds(func() { ilu.Apply(b, y) })
	ms["la.ilu_apply_us_per_krow"] = apply * 1e6 / krows
	ksp := &la.KSP{Op: mat, PC: ilu, Red: m, Type: la.BiCGS, Pool: pool, Rtol: 1e-8}
	var res la.Result
	solve := p.seconds(func() {
		for i := range x {
			x[i] = 0
		}
		var err error
		if res, err = ksp.Solve(b, x); err != nil {
			panic(err)
		}
	})
	its := math.Max(float64(res.Iterations), 1)
	ms["la.bicgs_us_per_it_per_krow"] = solve * 1e6 / its / krows
	ms["la.bicgs_its"] = float64(res.Iterations)
}

// poissonConfig is a scalar M + K multigrid configuration with no
// injected coefficients.
func poissonConfig() mg.Config {
	return mg.Config{
		Ndof: 1,
		Assemble: func(lvl *mg.Level) {
			kern, ok := lvl.Scratch.(fem.NodeMajorKernel)
			if !ok {
				r := lvl.Asm.Ref
				kern = func(w, e int, h float64, ke []float64) {
					r.Mass(h, 1, ke)
					r.Stiffness(h, 1, ke)
				}
				lvl.Scratch = kern
			}
			lvl.Asm.AssembleMatrix(lvl.Mat, fem.LayoutAIJ, kern)
		},
	}
}

func probeMG(p prober, m *mesh.Mesh, ms metricSet) {
	var h *mg.Hierarchy
	ms["mg.hierarchy_build_s"] = p.seconds(func() { h = mg.NewHierarchy(m, mg.HierarchyOptions{}) })
	ms["mg.levels"] = float64(h.Levels())
	asm := fem.NewAssembler(m, 1)
	asm.SetWorkers(1)
	fine := asm.NewMatrix(fem.LayoutAIJ)
	asm.AssembleMatrix(fine, fem.LayoutAIJ, func(w, e int, h float64, ke []float64) {
		asm.Ref.Mass(h, 1, ke)
		asm.Ref.Stiffness(h, 1, ke)
	})
	var g *mg.PCGMG
	ms["mg.setup_s"] = p.seconds(func() {
		g = mg.NewPCGMG(h, nil, poissonConfig())
		g.SetFineOperator(fine)
		g.Refresh()
	})
	ms["mg.refresh_s"] = p.seconds(g.Refresh)
	r, z := m.NewVec(1), m.NewVec(1)
	for i := 0; i < m.NumOwned; i++ {
		x, y, _ := m.NodeCoord(i)
		r[i] = math.Sin(13*x) * math.Cos(9*y)
	}
	cycle := p.seconds(func() { g.Apply(r, z) })
	ms["mg.vcycle_us_per_kdof"] = cycle * 1e6 / (float64(m.NumGlobal) / 1000)
}

func probeMesh(p prober, m *mesh.Mesh, elems float64, ms metricSet) {
	c := m.Comm
	build := p.seconds(func() { mesh.New(c, m.Dim, append([]sfc.Octant(nil), m.Elems...)) })
	ms["mesh.build_elems_per_s"] = elems / build
	v := m.NewVec(2)
	ms["mesh.ghost_read_us"] = p.seconds(func() { m.GhostRead(v, 2) }) * 1e6
	ms["mesh.ghost_frac"] = globalCount(m, m.NumLocal-m.NumOwned) / globalCount(m, m.NumLocal)
	most := par.Allreduce(c, m.NumElems(), func(a, b int) int { return max(a, b) })
	ms["mesh.elem_imbalance"] = float64(most) / (elems / float64(c.Size()))
}

func probeOctree(p prober, m *mesh.Mesh, elems float64, ms metricSet) {
	c := m.Comm
	leaves := func() []sfc.Octant { return append([]sfc.Octant(nil), m.Elems...) }
	ms["octree.balance_elems_per_s"] = elems / p.seconds(func() {
		octree.Balance21Distributed(c, m.Dim, leaves(), nil)
	})
	// 5% of the leaves, evenly spread, stand in for a remesh's dirty set.
	var dirty []sfc.Octant
	for i := 0; i < len(m.Elems); i += 20 {
		dirty = append(dirty, m.Elems[i])
	}
	ms["octree.ripple_elems_per_s"] = elems / p.seconds(func() {
		octree.Balance21Ripple(c, m.Dim, leaves(), dirty, nil)
	})
	ms["octree.partition_elems_per_s"] = elems / p.seconds(func() {
		octree.PartitionWeighted(c, leaves(), nil)
	})
}

// probeTransfer moves the solver's field set (phi-mu, velocity, pressure)
// from the end-state mesh to the same forest with its interface band
// refined once (Batch: point location and interpolation), and to the same
// forest on a shifted partition (MigrateNodal: exact keyed copy).
func probeTransfer(p prober, sim *core.Simulation, ms metricSet) {
	m, sol, c := sim.Mesh, sim.Solver, sim.Comm
	dim := m.Dim
	fields := func(dst *mesh.Mesh) []transfer.Field {
		return []transfer.Field{
			{Src: sol.PhiMu, Dst: dst.NewVec(2), Ndof: 2},
			{Src: sol.Vel, Dst: dst.NewVec(dim), Ndof: dim},
			{Src: sol.P, Dst: dst.NewVec(1), Ndof: 1},
		}
	}
	phi := m.NewVec(1)
	for i := 0; i < m.NumLocal; i++ {
		phi[i] = sol.PhiMu[2*i]
	}
	buf := make([]float64, m.CornersPerElem())
	var refined []sfc.Octant
	for e, o := range m.Elems {
		m.GatherElem(e, phi, 1, buf)
		band := false
		for _, v := range buf {
			band = band || math.Abs(v) < 0.9
		}
		if band && int(o.Level) < sfc.MaxLevel {
			for ch := 0; ch < o.NumChildren(); ch++ {
				refined = append(refined, o.Child(ch))
			}
		} else {
			refined = append(refined, o)
		}
	}
	refined = octree.PartitionWeighted(c, octree.Balance21Distributed(c, dim, refined, nil), nil)
	fineM := mesh.New(c, dim, refined)
	fineF := fields(fineM)
	var ws transfer.Workspace
	ms["transfer.batch_knodes_per_s"] = float64(fineM.NumGlobal) / 1000 /
		p.seconds(func() { transfer.Batch(m, fineM, fineF, &ws) })

	// Weighting the leaves by their position moves every splitter.
	weights := make([]float64, m.NumElems())
	for i := range weights {
		weights[i] = 1 + float64(c.Rank())
	}
	shifted := mesh.New(c, dim, octree.PartitionWeighted(c, append([]sfc.Octant(nil), m.Elems...), weights))
	shiftedF := fields(shifted)
	ms["transfer.migrate_knodes_per_s"] = float64(m.NumGlobal) / 1000 /
		p.seconds(func() { transfer.MigrateNodal(m, shifted, shiftedF) })
}

func probeDetect(p prober, sim *core.Simulation, elems float64, ms metricSet) {
	m, cfg := sim.Mesh, sim.Cfg
	phi := m.NewVec(1)
	for i := 0; i < m.NumLocal; i++ {
		phi[i] = sim.Solver.PhiMu[2*i]
	}
	m.GhostRead(phi, 1)
	dc := detect.Config{Delta: cfg.Delta, ErodeSteps: cfg.ErodeSteps, DilateSteps: cfg.DilateSteps,
		CleanSteps: cfg.CleanSteps, PadSteps: cfg.PadSteps, BaseLevel: cfg.InterfaceLevel}
	ms["detect.identify_elems_per_s"] = elems / p.seconds(func() { detect.Identify(m, phi, dc) })
}

func probePar(p prober, m *mesh.Mesh, ms metricSet) {
	c := m.Comm
	v := []float64{1, 2, 3}
	add := func(a, b float64) float64 { return a + b }
	ms["par.allreduce_us"] = p.seconds(func() { par.AllreduceSlice(c, v, add) }) * 1e6
	// Neighbour pattern: every rank sends one small buffer to the next.
	var dests []int
	var bufs [][]float64
	if c.Size() > 1 {
		dests, bufs = []int{(c.Rank() + 1) % c.Size()}, [][]float64{v}
	}
	ms["par.nbx_us"] = p.seconds(func() { par.NBXExchange(c, dests, bufs) }) * 1e6
	withPool(c, func(pool *par.Pool) {
		ms["par.pool_dispatch_us"] = p.seconds(func() { pool.Run(func(int) {}) }) * 1e6
	})
}

// withPool runs f with GOMAXPROCS raised to probeProcs and a worker pool
// of this rank's share of them: the one place the benchmark runs two
// threads, so that par.Pool has a number. Collective.
func withPool(c *par.Comm, f func(*par.Pool)) {
	var prev int
	if c.Rank() == 0 {
		prev = runtime.GOMAXPROCS(probeProcs)
	}
	c.Barrier()
	pool := par.NewPool(probeProcs / c.Size())
	f(pool)
	pool.Close()
	c.Barrier()
	if c.Rank() == 0 {
		runtime.GOMAXPROCS(prev)
	}
}

// probeIO times one checkpoint, one restore and one VTK dump of the end
// state into a scratch directory under benchmark/out, and sizes the files.
func probeIO(c *par.Comm, sim *core.Simulation, ms metricSet) {
	dir := filepath.Join(outDir, fmt.Sprintf("io-%d", os.Getpid()))
	timed := func(f func() error) float64 {
		c.Barrier()
		t0 := time.Now()
		if err := f(); err != nil {
			panic(err)
		}
		c.Barrier()
		return time.Since(t0).Seconds()
	}
	mb := func(pattern string) float64 {
		var n int64
		files, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, f := range files {
			if st, err := os.Stat(f); err == nil {
				n += st.Size()
			}
		}
		return float64(n) / (1 << 20)
	}
	ms["ckpt.write_s"] = timed(func() error { return sim.Checkpoint(filepath.Join(dir, "ck")) })
	ms["ckpt.restore_s"] = timed(func() error {
		restored, err := core.Restore(c, sim.Cfg, filepath.Join(dir, "ck"))
		if err == nil {
			restored.Solver.Close()
		}
		return err
	})
	ms["vtk.write_s"] = timed(func() error { return sim.WriteVTK(filepath.Join(dir, "vtk")) })
	ms["ckpt.mb"], ms["vtk.mb"] = mb("ck*"), mb("vtk*")
	c.Barrier()
	if c.Rank() == 0 {
		if err := os.RemoveAll(dir); err != nil {
			panic(err)
		}
	}
}

// probeKernels times the dense kernel under the element matrices at the
// mass-matrix shape (NPE x NPE x NG) and the SFC sort of the local leaves.
func probeKernels(p prober, m *mesh.Mesh, ms metricSet) {
	r := fem.NewRef(m.Dim)
	a := make([]float64, r.NG*r.NPE)
	for i := range a {
		a[i] = math.Sin(float64(i))
	}
	out := make([]float64, r.NPE*r.NPE)
	// One call is far below the clock's resolution, so time a batch.
	const batch = 2000
	gemm := p.seconds(func() {
		for i := 0; i < batch; i++ {
			blas.DgemmTA(r.NPE, r.NPE, r.NG, 1, r.N, a, 0, out)
		}
	})
	ms["blas.dgemm_gflops"] = float64(batch) * 2 * float64(r.NPE*r.NPE*r.NG) / gemm / 1e9

	shuffled := append([]sfc.Octant(nil), m.Elems...)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	keys := make([]sfc.Octant, len(shuffled))
	sortT := p.seconds(func() {
		copy(keys, shuffled)
		sfc.Sort(keys)
	})
	ms["sfc.sort_mkeys_per_s"] = float64(len(keys)) / 1e6 / sortT
}
