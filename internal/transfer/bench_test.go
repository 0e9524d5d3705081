package transfer

import (
	"math"
	"testing"
	"time"

	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// The Table I "Remesh" row and the batched-transfer ablation, with the
// baselines they measure: the level-by-level transfer and the per-field
// transfer that Batch replaces.

// nodal moves one nodal field from oldM to newM with its own Batch round:
// the per-field transfer that batching several fields replaces. Returns a
// full local vector on newM. Collective.
func nodal(oldM *mesh.Mesh, oldVec []float64, newM *mesh.Mesh, ndof int) []float64 {
	out := newM.NewVec(ndof)
	Batch(oldM, newM, []Field{{Src: oldVec, Dst: out, Ndof: ndof}}, nil)
	return out
}

// nodalLevelByLevel is the ablation baseline: the transfer walks through
// intermediate grids one level at a time, rebuilding a mesh per level —
// the overhead the single-pass multi-level transfer eliminates. Serial
// only (rank count 1), sufficient for the Table I "Remesh" comparison.
func nodalLevelByLevel(oldM *mesh.Mesh, oldVec []float64, newTree *octree.Tree, ndof int) ([]float64, *mesh.Mesh, int) {
	if oldM.Comm.Size() != 1 {
		panic("nodalLevelByLevel: serial baseline only")
	}
	curM := oldM
	curVec := oldVec
	passes := 0
	for {
		// Compute per-element one-level targets toward the new tree.
		curTree := &octree.Tree{Dim: curM.Dim, Leaves: curM.Elems}
		targets := make([]int, len(curTree.Leaves))
		done := true
		for i, o := range curTree.Leaves {
			finest := newTree.FinestOverlappingLevel(o)
			lvl := int(o.Level)
			switch {
			case finest > lvl:
				targets[i] = lvl + 1
				done = false
			case finest < lvl && coarsenable(newTree, o):
				targets[i] = lvl - 1
				done = false
			default:
				targets[i] = lvl
			}
		}
		if done {
			return curVec, curM, passes
		}
		next := curTree.Refine(refineOnly(targets, curTree), nil)
		next = next.Coarsen(coarsenTargets(targets, curTree, next))
		next = next.Balance21(nil)
		nm := mesh.New(curM.Comm, curM.Dim, next.Leaves)
		curVec = nodal(curM, curVec, nm, ndof)
		curM = nm
		passes++
		if passes > sfc.MaxLevel {
			panic("nodalLevelByLevel: did not converge to target tree")
		}
	}
}

func coarsenable(newTree *octree.Tree, o sfc.Octant) bool {
	// o may coarsen one level iff the new tree is strictly coarser over
	// o's whole parent region.
	if o.Level == 0 {
		return false
	}
	parent := o.Parent()
	lo, hi := newTree.OverlapRange(parent)
	for i := lo; i < hi; i++ {
		if int(newTree.Leaves[i].Level) >= int(o.Level) {
			return false
		}
	}
	return hi > lo
}

func refineOnly(targets []int, t *octree.Tree) []int {
	out := make([]int, len(targets))
	for i, o := range t.Leaves {
		out[i] = int(o.Level)
		if targets[i] > out[i] {
			out[i] = targets[i]
		}
	}
	return out
}

func coarsenTargets(targets []int, oldT, newT *octree.Tree) []int {
	// Map old per-element coarsening wishes onto the refined tree.
	out := make([]int, len(newT.Leaves))
	for i, o := range newT.Leaves {
		out[i] = int(o.Level)
	}
	j := 0
	for i, o := range oldT.Leaves {
		if targets[i] >= int(o.Level) {
			// Skip the descendants in newT.
			for j < len(newT.Leaves) && o.Overlaps(newT.Leaves[j]) {
				j++
			}
			continue
		}
		for j < len(newT.Leaves) && o.Overlaps(newT.Leaves[j]) {
			out[j] = targets[i]
			j++
		}
	}
	return out
}

// remeshOnce transfers a nodal field from a uniform level-3 grid to a
// uniform level-6 grid, a 3-level jump, single-pass or level by level.
func remeshOnce(levelByLevel bool) {
	par.Run(1, func(c *par.Comm) {
		mOld := mesh.New(c, 2, octree.Uniform(2, 3).Leaves)
		v := mOld.NewVec(1)
		for j := range v {
			v[j] = float64(j)
		}
		newTree := octree.Uniform(2, 6)
		if levelByLevel {
			nodalLevelByLevel(mOld, v, newTree, 1)
			return
		}
		nodal(mOld, v, mesh.New(c, 2, newTree.Leaves), 1)
	})
}

// Table I "Remesh" row: multi-level against level-by-level remeshing with
// inter-grid transfer across a 3-level jump.
func BenchmarkTableI_RemeshMultiLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		remeshOnce(false)
	}
}

func BenchmarkTableI_RemeshLevelByLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		remeshOnce(true)
	}
}

// transferTime moves the full CHNS field set (PhiMu 2-dof, Vel 2-dof,
// P 1-dof) between two adaptive grids on p ranks, in one Batch round or
// one round per field, and returns rank 0's time per transfer.
func transferTime(p int, batched bool, reps int) time.Duration {
	var dt time.Duration
	par.Run(p, func(c *par.Comm) {
		oldT := discTree(2, 4, 7, 0.35, 0.35, 0.2)
		newT := discTree(2, 4, 7, 0.6, 0.6, 0.2)
		mOld := mesh.New(c, 2, scatterLeaves(oldT, c.Rank(), p))
		mNew := mesh.New(c, 2, scatterLeaves(newT, c.Rank(), p))
		phiMu, vel, pr := mOld.NewVec(2), mOld.NewVec(2), mOld.NewVec(1)
		for i := 0; i < mOld.NumLocal; i++ {
			x, y, _ := mOld.NodeCoord(i)
			phiMu[2*i] = math.Tanh(20 * (math.Hypot(x-0.35, y-0.35) - 0.2))
			phiMu[2*i+1] = math.Sin(3 * x)
			vel[2*i], vel[2*i+1] = y, -x
			pr[i] = x + y
		}
		ws := &Workspace{}
		c.Barrier()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if batched {
				dPhiMu, dVel, dP := mNew.NewVec(2), mNew.NewVec(2), mNew.NewVec(1)
				Batch(mOld, mNew, []Field{
					{Src: phiMu, Dst: dPhiMu, Ndof: 2},
					{Src: vel, Dst: dVel, Ndof: 2},
					{Src: pr, Dst: dP, Ndof: 1},
				}, ws)
			} else {
				nodal(mOld, phiMu, mNew, 2)
				nodal(mOld, vel, mNew, 2)
				nodal(mOld, pr, mNew, 1)
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			dt = time.Since(t0) / time.Duration(reps)
		}
	})
	return dt
}

func BenchmarkTransferBatched(b *testing.B) {
	var dt time.Duration
	for i := 0; i < b.N; i++ {
		dt = transferTime(4, true, 3)
	}
	b.ReportMetric(float64(dt.Microseconds())/1000, "transfer-ms")
}

func BenchmarkTransferSequential(b *testing.B) {
	var dt time.Duration
	for i := 0; i < b.N; i++ {
		dt = transferTime(4, false, 3)
	}
	b.ReportMetric(float64(dt.Microseconds())/1000, "transfer-ms")
}
