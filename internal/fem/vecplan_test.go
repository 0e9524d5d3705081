package fem

import (
	"fmt"
	"testing"

	"proteus/internal/par"
)

// vecTestKernels builds deterministic element-dependent ndof=2 vector
// kernels (node-major and zipped) that are pure functions of (e, h) plus
// per-worker coefficient scratch, so they are valid under the sharded
// element loop and produce bit-identical elemental vectors on every
// invocation and at every worker count.
func vecTestKernels(asm *Assembler, nw int) (WorkerVecKernel, WorkerZippedVecKernel) {
	r := asm.Ref
	npe := r.NPE
	coef := make([][]float64, nw)
	for i := range coef {
		coef[i] = make([]float64, npe)
	}
	fill := func(w, e int, h float64, fe []float64, zipped bool) {
		c := coef[w]
		for a := 0; a < npe; a++ {
			c[a] = 1 + 0.1*float64((e+a)%7)
		}
		for d := 0; d < 2; d++ {
			for a := 0; a < npe; a++ {
				v := h * c[a] * float64(d+1)
				if zipped {
					fe[d*npe+a] += v
				} else {
					fe[a*2+d] += v
				}
			}
		}
	}
	loop := func(w, e int, h float64, fe []float64) { fill(w, e, h, fe, false) }
	zipped := func(w, e int, h float64, fz []float64) { fill(w, e, h, fz, true) }
	return loop, zipped
}

// TestVectorPlannedMatchesSerialBitwise is the vector-plan correctness
// contract: the sharded, store-and-gather planned path must reproduce
// the serial AssembleVector scatter bit for bit — in 2D and 3D, on
// meshes with hanging constraints, across ranks (exercising the
// ghost-overlap split write) and at every worker count (the gather sums
// contributions in canonical slot order, so sharding never reorders
// floating-point accumulation, unlike the matrix merge).
func TestVectorPlannedMatchesSerialBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 2, 4} {
			par.Run(p, func(c *par.Comm) {
				m := buildMesh(c, dim, 2, 4)
				if got := m.GlobalSum(float64(m.HangingCorners)); got == 0 {
					panic("vector plan test mesh has no hanging constraints")
				}
				asm := NewAssembler(m, 2)
				loop, zipped := vecTestKernels(asm, 4)

				ref := m.NewVec(2)
				asm.AssembleVector(ref, func(e int, h float64, fe []float64) {
					loop(0, e, h, fe)
				})
				refZ := m.NewVec(2)
				asm.AssembleVectorZipped(refZ, func(e int, h float64, fz []float64) {
					zipped(0, e, h, fz)
				})

				for _, nw := range []int{1, 2, 4} {
					asm.SetWorkers(nw)
					v := m.NewVec(2)
					asm.AssembleVectorPlanned(v, loop)
					mustEqualVec(c, fmt.Sprintf("planned dim=%d p=%d nw=%d", dim, p, nw), ref, v)
					vz := m.NewVec(2)
					asm.AssembleVectorZippedPlanned(vz, zipped)
					mustEqualVec(c, fmt.Sprintf("planned-zipped dim=%d p=%d nw=%d", dim, p, nw), refZ, vz)
				}

				// The per-assembly override knob pins the shard count
				// without touching the matrix workers.
				asm.SetWorkers(4)
				asm.SetVecWorkers(1)
				v := m.NewVec(2)
				asm.AssembleVectorPlanned(v, loop)
				mustEqualVec(c, fmt.Sprintf("vec-workers-knob dim=%d p=%d", dim, p), ref, v)
			})
		}
	}
}

func mustEqualVec(c *par.Comm, what string, want, got []float64) {
	if len(want) != len(got) {
		panic(fmt.Sprintf("%s: length %d != %d", what, len(got), len(want)))
	}
	for i := range want {
		if want[i] != got[i] {
			panic(fmt.Sprintf("%s rank=%d: v[%d] = %v, serial %v (diff %g)",
				what, c.Rank(), i, got[i], want[i], got[i]-want[i]))
		}
	}
}

// TestVectorPlannedZeroAllocs verifies the acceptance criterion for the
// warm planned vector path: with the plan built and a pool set, a whole
// sharded assembly (element phase, gather phase, pool dispatch)
// allocates nothing.
func TestVectorPlannedZeroAllocs(t *testing.T) {
	for _, nw := range []int{1, 2} {
		var allocs float64
		par.Run(1, func(c *par.Comm) {
			m := buildMesh(c, 2, 2, 4)
			asm := NewAssembler(m, 2)
			asm.SetWorkers(nw)
			pool := par.NewPool(nw)
			defer pool.Close()
			asm.SetPool(pool)
			loop, zipped := vecTestKernels(asm, nw)
			v := m.NewVec(2)
			asm.AssembleVectorPlanned(v, loop) // cold: builds the plan
			allocs = testing.AllocsPerRun(10, func() {
				asm.AssembleVectorPlanned(v, loop)
				asm.AssembleVectorZippedPlanned(v, zipped)
			})
		})
		if allocs != 0 {
			t.Fatalf("nw=%d: warm planned vector assembly allocates %v times per run, want 0", nw, allocs)
		}
	}
}

// TestVectorPlanInvalidatedByEpoch pins the remesh contract: an epoch
// bump drops the cached vector plan with the matrix plans, so the next
// assembly rebuilds it against the new mesh generation.
func TestVectorPlanInvalidatedByEpoch(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		m := buildMesh(c, 2, 2, 4)
		asm := NewAssembler(m, 2)
		loop, _ := vecTestKernels(asm, asm.Workers())
		v := m.NewVec(2)
		asm.AssembleVectorPlanned(v, loop)
		if asm.VecPlan() == nil {
			panic("planned vector assembly did not cache a plan")
		}
		asm.Rebind(m, asm.Epoch()+1, nil)
		if asm.VecPlan() != nil {
			panic("epoch bump did not drop the vector plan")
		}
		asm.AssembleVectorPlanned(v, loop)
		if asm.VecPlan() == nil {
			panic("post-epoch assembly did not rebuild the plan")
		}
	})
}
