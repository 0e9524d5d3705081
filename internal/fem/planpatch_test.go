package fem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// patchedPair builds an old mesh and a patched sibling over a perturbed
// forest that keeps the partition splitters stable, returning the old
// mesh, the patched mesh and its delta, plus a from-scratch mesh over the
// same forest for cold reference assembly.
func patchedPair(c *par.Comm, dim int, seed int64) (*mesh.Mesh, *mesh.Mesh, *mesh.Delta, *mesh.Mesh) {
	// Index-space protection cannot fully rule out a balance cascade
	// refining a rank's first leaf (which moves the splitters and makes
	// Patch fall back — collectively, so every rank retries in lockstep).
	for attempt := int64(0); attempt < 20; attempt++ {
		old, patched, delta, scratch := tryPatchedPair(c, dim, seed*131+attempt)
		if patched != nil {
			return old, patched, delta, scratch
		}
	}
	panic(fmt.Sprintf("dim=%d p=%d seed=%d: no perturbation kept the splitters stable", dim, c.Size(), seed))
}

func tryPatchedPair(c *par.Comm, dim int, seed int64) (*mesh.Mesh, *mesh.Mesh, *mesh.Delta, *mesh.Mesh) {
	p := c.Size()
	r := rand.New(rand.NewSource(seed))
	depth := 5
	if dim == 3 {
		depth = 4
	}
	base := octree.Build(dim, func(o sfc.Octant) bool { return r.Float64() < 0.45 }, depth, nil).Balance21(nil)
	n := base.Len()
	oldLocal := append([]sfc.Octant(nil), base.Leaves[c.Rank()*n/p:(c.Rank()+1)*n/p]...)
	old := mesh.New(c, dim, oldLocal)
	oldSpl := octree.GatherSplitters(c, oldLocal)

	// Perturb away from partition boundaries so Patch does not fall back.
	prot := func(i int) bool {
		for rk := 0; rk <= p; rk++ {
			b := rk * n / p
			if i >= b-8 && i <= b+8 {
				return true
			}
		}
		return false
	}
	rt := make([]int, n)
	for i, o := range base.Leaves {
		rt[i] = int(o.Level)
		if !prot(i) && r.Float64() < 0.1 {
			rt[i] = int(o.Level) + 1
		}
	}
	pert := base.Refine(rt, nil)
	var mine []sfc.Octant
	for _, o := range pert.Leaves {
		if oldSpl.Owner(o.FirstDescendant()) == c.Rank() {
			mine = append(mine, o)
		}
	}
	bal := octree.Balance21Distributed(c, dim, mine, nil)
	dirty := octree.AddedLeaves(oldLocal, bal)

	patched, delta := mesh.Patch(c, dim, append([]sfc.Octant(nil), bal...), old, dirty)
	if patched == nil {
		return nil, nil, nil, nil
	}
	scratch := mesh.New(c, dim, append([]sfc.Octant(nil), bal...))
	return old, patched, delta, scratch
}

// TestRebindPatchedMatchesColdBitwise is the fem-layer headline
// invariant: after a mesh patch, the repaired sparsity and plans must
// equal what a cold assembly on the patched mesh freezes, and plan-driven
// assembly through them must reproduce the cold values bit for bit — for
// all three layouts, serially and across ranks, with hanging constraints
// in the dirty region.
func TestRebindPatchedMatchesColdBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 2, 4} {
			for _, layout := range []Layout{LayoutAIJ, LayoutBAIJ, LayoutZipped} {
				par.Run(p, func(c *par.Comm) {
					old, patched, delta, scratch := patchedPair(c, dim, int64(3+p))

					asm := NewAssembler(old, 2)
					asm.SetWorkers(1)
					loop, zipped := planTestKernels(asm, 1)
					mat := NewMatrix(old, 2, layout)
					assembleOnce(asm, mat, layout, loop, zipped) // freeze old plan
					vold := make([]float64, old.NumLocal*2)
					asm.AssembleVectorPlanned(vold, func(w, e int, h float64, fe []float64) {
						for i := range fe {
							fe[i] = h * float64(e%5+1)
						}
					})

					asm.Rebind(patched, asm.Epoch()+1, delta)
					pp := asm.Plan(layout)
					if pp == nil {
						panic("patched Rebind dropped the plan")
					}

					// Cold reference on a from-scratch mesh over the same
					// forest (bitwise identical to `patched` by the mesh
					// patch invariant).
					ref := NewAssembler(scratch, 2)
					ref.SetWorkers(1)
					rloop, rzipped := planTestKernels(ref, 1)
					rmat := NewMatrix(scratch, 2, layout)
					assembleOnce(ref, rmat, layout, rloop, rzipped)
					rp := ref.Plan(layout)

					if err := sparsityEqual(pp.sp, rp.sp); err != nil {
						panic(fmt.Sprintf("dim=%d p=%d layout=%d rank=%d: patched sparsity: %v", dim, p, layout, c.Rank(), err))
					}
					if len(pp.entries) != len(rp.entries) {
						panic(fmt.Sprintf("dim=%d p=%d layout=%d: entries %d vs cold %d", dim, p, layout, len(pp.entries), len(rp.entries)))
					}
					for i := range pp.entries {
						if pp.entries[i] != rp.entries[i] {
							panic(fmt.Sprintf("dim=%d p=%d layout=%d rank=%d: entry %d = %+v, cold %+v",
								dim, p, layout, c.Rank(), i, pp.entries[i], rp.entries[i]))
						}
					}
					if len(pp.offStore) != len(rp.offStore) {
						panic(fmt.Sprintf("dim=%d p=%d layout=%d: off-proc store %d vs cold %d", dim, p, layout, len(pp.offStore), len(rp.offStore)))
					}
					for i := range pp.offStore {
						if pp.offStore[i].Row != rp.offStore[i].Row || pp.offStore[i].Col != rp.offStore[i].Col {
							panic(fmt.Sprintf("dim=%d p=%d layout=%d: off-proc key %d differs", dim, p, layout, i))
						}
					}

					// Warm assembly through the patched plan: the matrix is
					// born finalized from the repaired sparsity and the
					// values must equal the cold reference bitwise.
					mat2 := asm.NewMatrix(layout)
					if !mat2.Finalized() || mat2.Sparsity() != pp.sp {
						panic("patched NewMatrix did not share the repaired sparsity")
					}
					assembleOnce(asm, mat2, layout, loop, zipped)
					mustBitwise(c, "patched-warm", dim, p, layout, rmat.Vals(), mat2.Vals())

					// Patched vector plan: same contract against the serial
					// reference path on the patched mesh.
					vk := func(w, e int, h float64, fe []float64) {
						for i := range fe {
							fe[i] = h * float64(e%5+1)
						}
					}
					vgot := make([]float64, patched.NumLocal*2)
					asm.AssembleVectorPlanned(vgot, vk)
					vwant := make([]float64, patched.NumLocal*2)
					ref.AssembleVector(vwant, func(e int, h float64, fe []float64) { vk(0, e, h, fe) })
					for i := range vwant {
						if vwant[i] != vgot[i] {
							panic(fmt.Sprintf("dim=%d p=%d rank=%d: patched vector[%d] = %v, reference %v",
								dim, p, c.Rank(), i, vgot[i], vwant[i]))
						}
					}
					_ = vold
				})
			}
		}
	}
}

func sparsityEqual(a, b *la.Sparsity) error {
	if a.NRows != b.NRows {
		return fmt.Errorf("rows %d vs %d", a.NRows, b.NRows)
	}
	if len(a.Indptr) != len(b.Indptr) || len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("shape %d/%d vs %d/%d", len(a.Indptr), len(a.Cols), len(b.Indptr), len(b.Cols))
	}
	for i := range a.Indptr {
		if a.Indptr[i] != b.Indptr[i] {
			return fmt.Errorf("indptr[%d] %d vs %d", i, a.Indptr[i], b.Indptr[i])
		}
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return fmt.Errorf("cols[%d] %d vs %d", i, a.Cols[i], b.Cols[i])
		}
	}
	return nil
}

// TestRebindPatchedNoPlans: rebinding with no frozen plans must behave
// like a cold Rebind (next assembly runs cold) and still participate in the
// collective exchange correctly when other ranks do hold plans is covered
// above; here the serial no-plan path.
func TestRebindPatchedNoPlans(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		old, patched, delta, _ := patchedPair(c, 2, 11)
		asm := NewAssembler(old, 2)
		asm.Rebind(patched, 1, delta)
		if asm.Plan(LayoutBAIJ) != nil || asm.Plan(LayoutAIJ) != nil || asm.VecPlan() != nil {
			panic("patched Rebind invented plans from nothing")
		}
		loop, zipped := planTestKernels(asm, 1)
		mat := NewMatrix(patched, 2, LayoutBAIJ)
		assembleOnce(asm, mat, LayoutBAIJ, loop, zipped)
		if asm.Plan(LayoutBAIJ) == nil {
			panic("cold assembly after a patched Rebind did not freeze a plan")
		}
		s := 0.0
		for _, v := range mat.Vals() {
			s += v * v
		}
		if s == 0 || math.IsNaN(s) {
			panic("cold assembly after a patched Rebind produced a zero/NaN operator")
		}
	})
}
