package fem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

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
// equal the ones a fresh assembler builds on the patched mesh, assembly
// through them must equal that fresh assembler's bit for bit, and both
// must match the map-based cold oracle (identical pattern, bitwise
// values) — for all
// three layouts, serially and across ranks, with hanging constraints in
// the dirty region.
func TestRebindPatchedMatchesColdBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 2, 4} {
			par.Run(p, func(c *par.Comm) {
				old, patched, delta, scratch := patchedPair(c, dim, int64(3+p))
				for _, layout := range []Layout{LayoutAIJ, LayoutBAIJ, LayoutZipped} {
					what := fmt.Sprintf("dim=%d p=%d layout=%d", dim, p, layout)
					asm := NewAssembler(old, 2)
					loop, zipped := planTestKernels(asm)
					assembleOnce(asm, asm.NewMatrix(layout), layout, loop, zipped)
					vk := func(w, e int, h float64, fe []float64) {
						for i := range fe {
							fe[i] = h * float64(e%5+1)
						}
					}
					asm.AssembleVectorPlanned(make([]float64, old.NumLocal*2), vk)

					asm.Rebind(patched, asm.Epoch()+1, delta)
					pp := asm.Plan(layout)
					if pp == nil {
						panic(what + ": patched Rebind dropped the plan")
					}

					// Reference: a fresh assembler on a from-scratch mesh
					// over the same forest (bitwise identical to `patched`
					// by the mesh patch invariant).
					ref := NewAssembler(scratch, 2)
					rloop, rzipped := planTestKernels(ref)
					rmat := ref.NewMatrix(layout)
					rp := ref.Plan(layout)
					if err := sparsityEqual(pp.sp, rp.sp); err != nil {
						panic(fmt.Sprintf("%s rank=%d: patched sparsity: %v", what, c.Rank(), err))
					}
					if err := planRoutingEqual(pp, rp); err != nil {
						panic(fmt.Sprintf("%s rank=%d: patched plan: %v", what, c.Rank(), err))
					}

					mat := asm.NewMatrix(layout)
					if !mat.Finalized() || mat.Sparsity() != pp.sp {
						panic(what + ": patched NewMatrix did not share the repaired sparsity")
					}
					assembleOnce(asm, mat, layout, loop, zipped)
					assembleOnce(ref, rmat, layout, rloop, rzipped)
					mustBitwise(c, what+" patched vs fresh", rmat.Vals(), mat.Vals())
					mustMatchOracle(c, what+" patched", coldAssemble(ref, layout, rloop, rzipped), mat)

					// Vector assembly on the patched mesh: the same bits as
					// the serial reference path on the from-scratch mesh.
					vgot := make([]float64, patched.NumLocal*2)
					asm.AssembleVectorPlanned(vgot, vk)
					vwant := make([]float64, patched.NumLocal*2)
					ref.AssembleVector(vwant, func(e int, h float64, fe []float64) { vk(0, e, h, fe) })
					for i := range vwant {
						if vwant[i] != vgot[i] {
							panic(fmt.Sprintf("%s rank=%d: patched vector[%d] = %v, reference %v",
								what, c.Rank(), i, vgot[i], vwant[i]))
						}
					}
				}
			})
		}
	}
}

// planRoutingEqual compares everything a plan holds besides its
// sparsity: the slot of every entry, the off-process destinations and
// their entry counts, and each source's receive slots.
func planRoutingEqual(got, want *AssemblyPlan) error {
	if len(got.entries) != len(want.entries) {
		return fmt.Errorf("entries %d vs %d", len(got.entries), len(want.entries))
	}
	for i := range got.entries {
		if got.entries[i] != want.entries[i] {
			return fmt.Errorf("entry %d = %+v, want %+v", i, got.entries[i], want.entries[i])
		}
	}
	if len(got.offStore) != len(want.offStore) || !slices.Equal(got.offDests, want.offDests) {
		return fmt.Errorf("off-process store %d to ranks %v, want %d to %v",
			len(got.offStore), got.offDests, len(want.offStore), want.offDests)
	}
	for i := range got.offBufs {
		if len(got.offBufs[i]) != len(want.offBufs[i]) {
			return fmt.Errorf("off-process buffer to rank %d has %d values, want %d",
				got.offDests[i], len(got.offBufs[i]), len(want.offBufs[i]))
		}
	}
	if len(got.recv) != len(want.recv) {
		return fmt.Errorf("receive plans from %d ranks, want %d", len(got.recv), len(want.recv))
	}
	for i := range got.recv {
		g, w := &got.recv[i], &want.recv[i]
		if g.src != w.src || !slices.Equal(g.slot, w.slot) || !slices.Equal(g.aux, w.aux) {
			return fmt.Errorf("receive plan %d (rank %d, %d slots) differs from rank %d's (%d slots)",
				i, g.src, len(g.slot), w.src, len(w.slot))
		}
	}
	return nil
}

// TestRebindPatchedNoPlans: rebinding with no frozen plans invents none;
// the next NewMatrix builds the plan from the patched mesh, and assembly
// through it matches the cold oracle bit for bit.
func TestRebindPatchedNoPlans(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		old, patched, delta, _ := patchedPair(c, 2, 11)
		asm := NewAssembler(old, 2)
		asm.Rebind(patched, 1, delta)
		if asm.Plan(LayoutBAIJ) != nil || asm.Plan(LayoutAIJ) != nil {
			panic("patched Rebind invented plans from nothing")
		}
		loop, zipped := planTestKernels(asm)
		mat := asm.NewMatrix(LayoutBAIJ)
		if asm.Plan(LayoutBAIJ) == nil {
			panic("NewMatrix after a patched Rebind did not build a plan")
		}
		assembleOnce(asm, mat, LayoutBAIJ, loop, zipped)
		mustMatchOracle(c, "after patched Rebind without plans", coldAssemble(asm, LayoutBAIJ, loop, zipped), mat)
		s := 0.0
		for _, v := range mat.Vals() {
			s += v * v
		}
		if s == 0 || math.IsNaN(s) {
			panic("assembly after a patched Rebind produced a zero/NaN operator")
		}
	})
}
