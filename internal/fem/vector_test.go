package fem

import (
	"fmt"
	"testing"

	"proteus/internal/par"
)

// vecTestKernels builds deterministic element-dependent ndof=2 vector
// kernels (node-major and zipped) that are pure functions of (e, h), so
// they produce bit-identical elemental vectors on every invocation.
func vecTestKernels(asm *Assembler) (WorkerVecKernel, WorkerZippedVecKernel) {
	r := asm.Ref
	npe := r.NPE
	coef := make([]float64, npe)
	fill := func(e int, h float64, fe []float64, zipped bool) {
		for a := 0; a < npe; a++ {
			coef[a] = 1 + 0.1*float64((e+a)%7)
		}
		for d := 0; d < 2; d++ {
			for a := 0; a < npe; a++ {
				v := h * coef[a] * float64(d+1)
				if zipped {
					fe[d*npe+a] += v
				} else {
					fe[a*2+d] += v
				}
			}
		}
	}
	loop := func(w, e int, h float64, fe []float64) { fill(e, h, fe, false) }
	zipped := func(w, e int, h float64, fz []float64) { fill(e, h, fz, true) }
	return loop, zipped
}

// TestVectorPlannedMatchesSerialBitwise is the planned vector path's
// contract: over the assembler's persistent scratch it must reproduce the
// serial AssembleVector scatter bit for bit — in 2D and 3D, on meshes
// with hanging constraints, and across ranks (exercising the combining
// ghost write).
func TestVectorPlannedMatchesSerialBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 2, 4} {
			par.Run(p, func(c *par.Comm) {
				m := buildMesh(c, dim, 2, 4)
				if got := m.GlobalSum(float64(m.HangingCorners)); got == 0 {
					panic("vector test mesh has no hanging constraints")
				}
				asm := NewAssembler(m, 2)
				loop, zipped := vecTestKernels(asm)

				ref := m.NewVec(2)
				asm.AssembleVector(ref, func(e int, h float64, fe []float64) {
					loop(0, e, h, fe)
				})
				refZ := m.NewVec(2)
				asm.AssembleVectorZipped(refZ, func(e int, h float64, fz []float64) {
					zipped(0, e, h, fz)
				})

				v := m.NewVec(2)
				asm.AssembleVectorPlanned(v, loop)
				mustEqualVec(c, fmt.Sprintf("planned dim=%d p=%d", dim, p), ref, v)
				vz := m.NewVec(2)
				asm.AssembleVectorZippedPlanned(vz, zipped)
				mustEqualVec(c, fmt.Sprintf("planned-zipped dim=%d p=%d", dim, p), refZ, vz)
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
// warm planned vector path: a whole assembly allocates nothing.
func TestVectorPlannedZeroAllocs(t *testing.T) {
	var allocs float64
	par.Run(1, func(c *par.Comm) {
		m := buildMesh(c, 2, 2, 4)
		asm := NewAssembler(m, 2)
		loop, zipped := vecTestKernels(asm)
		v := m.NewVec(2)
		asm.AssembleVectorPlanned(v, loop)
		allocs = testing.AllocsPerRun(10, func() {
			asm.AssembleVectorPlanned(v, loop)
			asm.AssembleVectorZippedPlanned(v, zipped)
		})
	})
	if allocs != 0 {
		t.Fatalf("warm planned vector assembly allocates %v times per run, want 0", allocs)
	}
}
