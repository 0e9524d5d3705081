package fem

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// planTestKernels builds deterministic, element-dependent kernels for
// the assembler's ndof (1 or 2) that produce bit-identical elemental
// matrices on every invocation.
func planTestKernels(asm *Assembler) (NodeMajorKernel, ZippedKernel) {
	r := asm.Ref
	npe := r.NPE
	nd := asm.Ndof
	type scr struct {
		blocks [][]float64
		tmp    []float64
	}
	sc := &scr{blocks: make([][]float64, nd*nd), tmp: make([]float64, npe*npe)}
	for j := range sc.blocks {
		sc.blocks[j] = make([]float64, npe*npe)
	}
	loop := func(w, e int, h float64, ke []float64) {
		c := 1 + 0.1*float64(e%7)
		for _, b := range sc.blocks {
			for i := range b {
				b[i] = 0
			}
		}
		r.Mass(h, c, sc.blocks[0])
		r.Stiffness(h, 1, sc.blocks[0])
		if nd == 2 {
			r.Mass(h, 0.3*c, sc.blocks[1])
			r.Mass(h, c, sc.blocks[3])
		}
		UnzipMat(nd, npe, sc.blocks, ke)
	}
	zipped := func(w, e int, h float64, blocks [][]float64) {
		c := 1 + 0.1*float64(e%7)
		wk := asm.Work()
		r.MassGemm(wk, h, c, nil, blocks[0])
		r.StiffGemm(wk, h, 1, nil, sc.tmp)
		for i := range sc.tmp {
			blocks[0][i] += sc.tmp[i]
		}
		if nd == 2 {
			r.MassGemm(wk, h, 0.3*c, nil, blocks[1])
			r.MassGemm(wk, h, c, nil, blocks[3])
		}
	}
	return loop, zipped
}

func assembleOnce(asm *Assembler, mat *la.BSRMat, layout Layout, loop NodeMajorKernel, zipped ZippedKernel) {
	if layout == LayoutZipped {
		asm.AssembleMatrixZipped(mat, zipped)
	} else {
		asm.AssembleMatrix(mat, layout, loop)
	}
}

// TestWarmAssemblyMatchesColdBitwise is the plan-correctness contract:
// the one plan path — the first assembly into a fresh assembler's matrix
// and every reassembly — must reproduce the map-based cold oracle
// (coldAssemble): identical pattern and bitwise values, for all three
// layouts, ndof 1 and 2, in 2D and 3D, on meshes with hanging-node constraints, serially
// and across 2 and 4 ranks (exercising the slot-only entries, the
// value-only off-process exchange and the receive slots resolved at plan
// build). The plan is then repaired by a patched Rebind onto a refined
// forest whose partition splitters moved (mesh.PatchMigrated) and must
// assemble like the oracle there too.
func TestWarmAssemblyMatchesColdBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 2, 4} {
			par.Run(p, func(c *par.Comm) {
				m := buildMesh(c, dim, 2, 4)
				if got := m.GlobalSum(float64(m.HangingCorners)); got == 0 {
					panic("plan test mesh has no hanging constraints")
				}
				moved, delta := movedSibling(c, dim, m)
				for _, nd := range []int{1, 2} {
					for _, layout := range []Layout{LayoutAIJ, LayoutBAIJ, LayoutZipped} {
						what := fmt.Sprintf("dim=%d p=%d ndof=%d layout=%d", dim, p, nd, layout)
						asm := NewAssembler(m, nd)
						loop, zipped := planTestKernels(asm)
						cold := coldAssemble(asm, layout, loop, zipped)

						mat := asm.NewMatrix(layout)
						if asm.Plan(layout) == nil || !mat.Finalized() {
							panic(what + ": NewMatrix did not build a plan and a finalized matrix")
						}
						assembleOnce(asm, mat, layout, loop, zipped)
						mustMatchOracle(c, what+" first", cold, mat)

						mat.Zero()
						assembleOnce(asm, mat, layout, loop, zipped)
						mustMatchOracle(c, what+" reassembly", cold, mat)

						mat2 := asm.NewMatrix(layout)
						if mat2.Sparsity() != mat.Sparsity() {
							panic(what + ": NewMatrix did not share the frozen sparsity")
						}
						assembleOnce(asm, mat2, layout, loop, zipped)
						mustMatchOracle(c, what+" fresh-shared-matrix", cold, mat2)

						asm.Rebind(moved, asm.Epoch()+1, delta)
						if asm.Plan(layout) == nil {
							panic(what + ": patched Rebind across moved splitters dropped the plan")
						}
						cold = coldAssemble(asm, layout, loop, zipped)
						mat3 := asm.NewMatrix(layout)
						assembleOnce(asm, mat3, layout, loop, zipped)
						mustMatchOracle(c, what+" first after moved-splitter Rebind", cold, mat3)
						mat3.Zero()
						assembleOnce(asm, mat3, layout, loop, zipped)
						mustMatchOracle(c, what+" reassembly after moved-splitter Rebind", cold, mat3)
					}
				}
			})
		}
	}
}

// movedSibling builds the patched successor of buildMesh(c, dim, 2, 4)
// over a forest refined in a corner and re-chunked with shifted cuts, so
// the partition splitters move (on more than one rank) and the mesh
// comes from the migrate-then-patch route with its delta.
func movedSibling(c *par.Comm, dim int, old *mesh.Mesh) (*mesh.Mesh, *mesh.Delta) {
	tr := gradedTree(dim, 2, 4)
	rt := make([]int, tr.Len())
	for i, o := range tr.Leaves {
		rt[i] = int(o.Level)
		if o.X == 0 && o.Y == 0 && o.Z == 0 && o.Level < 5 {
			rt[i]++
		}
	}
	fine := tr.Refine(rt, nil).Balance21(nil)
	p := c.Size()
	n := fine.Len()
	cut := func(k int) int {
		if k == 0 || k == p {
			return k * n / p
		}
		return k*n/p + n/(3*p)
	}
	local := append([]sfc.Octant(nil), fine.Leaves[cut(c.Rank()):cut(c.Rank()+1)]...)
	if p > 1 && octree.GatherSplitters(c, local).Equal(octree.GatherSplitters(c, old.Elems)) {
		panic("shifted cuts left the partition splitters in place")
	}
	moved, _, delta := mesh.PatchMigrated(old, local)
	return moved, delta
}

// TestFirstAssemblyMatchesReassemblyBitwise is the route contract: a
// fresh assembler's first assembly, a reassembly into the same matrix and
// a second fresh assembler's first assembly sum in the same order, so they
// agree bit for bit, serially and across ranks.
func TestFirstAssemblyMatchesReassemblyBitwise(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 2} {
			par.Run(p, func(c *par.Comm) {
				m := buildMesh(c, dim, 2, 4)
				for _, layout := range []Layout{LayoutAIJ, LayoutBAIJ, LayoutZipped} {
					what := fmt.Sprintf("dim=%d p=%d layout=%d", dim, p, layout)
					first := func() []float64 {
						asm := NewAssembler(m, 2)
						loop, zipped := planTestKernels(asm)
						mat := asm.NewMatrix(layout)
						assembleOnce(asm, mat, layout, loop, zipped)
						vals := append([]float64(nil), mat.Vals()...)
						mat.Zero()
						assembleOnce(asm, mat, layout, loop, zipped)
						mustBitwise(c, what+" reassembly", vals, mat.Vals())
						return vals
					}
					mustBitwise(c, what+" second fresh assembler", first(), first())
				}
			})
		}
	}
}

func mustBitwise(c *par.Comm, what string, want, got []float64) {
	if len(want) != len(got) {
		panic(fmt.Sprintf("%s: value count %d != %d", what, len(got), len(want)))
	}
	for i := range want {
		if want[i] != got[i] {
			panic(fmt.Sprintf("%s rank=%d: vals[%d] = %v, want %v (diff %g)",
				what, c.Rank(), i, got[i], want[i], got[i]-want[i]))
		}
	}
}

// TestForeignMatrixPanics: only a matrix made by this assembler's
// NewMatrix for the layout since the last Rebind has the plan's pattern;
// assembling anything else must fail loudly instead of writing through a
// plan that does not address it.
func TestForeignMatrixPanics(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		m := buildMesh(c, 2, 2, 4)
		asm := NewAssembler(m, 2)
		other := NewAssembler(m, 2)
		loop, zipped := planTestKernels(asm)
		stale := asm.NewMatrix(LayoutBAIJ)
		asm.Rebind(m, asm.Epoch()+1, nil)
		aij := asm.NewMatrix(LayoutAIJ)
		cases := []struct {
			name   string
			mat    *la.BSRMat
			layout Layout
		}{
			{"unplanned la matrix", la.NewBAIJ(m, 2, m.NumOwned, m.NumLocal), LayoutBAIJ},
			{"another assembler's matrix", other.NewMatrix(LayoutBAIJ), LayoutBAIJ},
			{"matrix made before Rebind", stale, LayoutBAIJ},
			{"AIJ matrix assembled as zipped", aij, LayoutZipped},
		}
		for _, tc := range cases {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "not made by this assembler's NewMatrix") {
						t.Errorf("%s: recovered %q, want the foreign-matrix panic", tc.name, msg)
					}
				}()
				assembleOnce(asm, tc.mat, tc.layout, loop, zipped)
			}()
		}
	})
}

// TestWarmAssemblyZeroAllocs verifies the acceptance criterion that the
// steady-state element loop performs no map operations and no per-element
// heap allocation: a whole reassembly allocates nothing.
func TestWarmAssemblyZeroAllocs(t *testing.T) {
	for _, layout := range []Layout{LayoutBAIJ, LayoutZipped, LayoutAIJ} {
		var allocs float64
		par.Run(1, func(c *par.Comm) {
			m := buildMesh(c, 2, 2, 4)
			asm := NewAssembler(m, 2)
			loop, zipped := planTestKernels(asm)
			mat := asm.NewMatrix(layout)
			assembleOnce(asm, mat, layout, loop, zipped)
			allocs = testing.AllocsPerRun(10, func() {
				mat.Zero()
				assembleOnce(asm, mat, layout, loop, zipped)
			})
		})
		if allocs != 0 {
			t.Fatalf("layout=%d: warm assembly allocates %v times per run, want 0", layout, allocs)
		}
	}
}

// TestPlanEntryIsOneSlot pins the plan's per-entry footprint: one int32
// slot, the weight and the AIJ stride being recomputed where the entry is
// applied.
func TestPlanEntryIsOneSlot(t *testing.T) {
	if got := unsafe.Sizeof(planEntry{}); got != 4 {
		t.Fatalf("planEntry is %d bytes, want 4", got)
	}
}

// TestWarmAssemblyTrafficIsValuesOnly pins what one warm assembly sends
// at 2 ranks: exactly 8·ndof² payload bytes per off-process entry (the
// values, no keys) in one message per destination, plus the trailing
// barrier. The cost of one assembly is the difference of two runs that
// differ by one warm assembly, so the measurement brackets nothing else.
func TestWarmAssemblyTrafficIsValuesOnly(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, nd := range []int{1, 2} {
			for _, layout := range []Layout{LayoutAIJ, LayoutBAIJ, LayoutZipped} {
				run := func(warm int) (bytes, msgs int64, entries, dests int) {
					var st *par.Stats
					par.Run(2, func(c *par.Comm) {
						m := buildMesh(c, dim, 2, 4)
						asm := NewAssembler(m, nd)
						loop, zipped := planTestKernels(asm)
						mat := asm.NewMatrix(layout)
						assembleOnce(asm, mat, layout, loop, zipped)
						for i := 0; i < warm; i++ {
							mat.Zero()
							assembleOnce(asm, mat, layout, loop, zipped)
						}
						p := asm.Plan(layout)
						sum := func(a, b int) int { return a + b }
						e := par.Allreduce(c, p.OffProcEntries(), sum)
						d := par.Allreduce(c, len(p.offDests), sum)
						if c.Rank() == 0 {
							st, entries, dests = c.Stats(), e, d
						}
					})
					return st.Bytes.Load(), st.Messages.Load(), entries, dests
				}
				b0, m0, entries, dests := run(0)
				b1, m1, _, _ := run(1)
				const barrierMsgs = 2 // one dissemination round per rank at 2 ranks, 0 bytes each
				if entries == 0 || b1-b0 != int64(8*nd*nd*entries) || m1-m0-barrierMsgs != int64(dests) {
					t.Errorf("dim=%d ndof=%d layout=%d: one warm assembly moved %d bytes in %d messages, want %d bytes (%d off-process entries) in %d + %d",
						dim, nd, layout, b1-b0, m1-m0, 8*nd*nd*entries, entries, dests, barrierMsgs)
				}
			}
		}
	}
}

// TestWarmAssemblyBufferHandOff runs back-to-back warm assemblies of one
// matrix at 2 and 4 ranks, alternating two kernels, and requires each to
// equal its kernel's reference bit for bit. Receivers read the senders'
// off-process values by reference (par.NBXExchange), so only the trailing
// barrier of the flush keeps a sender's next assembly from overwriting
// values an owner has not applied yet; under -race this test is what
// proves it.
func TestWarmAssemblyBufferHandOff(t *testing.T) {
	for _, p := range []int{2, 4} {
		for _, layout := range []Layout{LayoutAIJ, LayoutZipped} {
			par.Run(p, func(c *par.Comm) {
				m := buildMesh(c, 2, 2, 4)
				asm := NewAssembler(m, 2)
				loop, zipped := planTestKernels(asm)
				scale := func(s float64) (NodeMajorKernel, ZippedKernel) {
					return func(w, e int, h float64, ke []float64) {
							loop(w, e, h, ke)
							for i := range ke {
								ke[i] *= s
							}
						}, func(w, e int, h float64, blocks [][]float64) {
							zipped(w, e, h, blocks)
							for _, b := range blocks {
								for i := range b {
									b[i] *= s
								}
							}
						}
				}
				mat := asm.NewMatrix(layout)
				var want [2][]float64
				for k := range want {
					l, z := scale(float64(k + 1))
					mat.Zero()
					assembleOnce(asm, mat, layout, l, z)
					want[k] = append([]float64(nil), mat.Vals()...)
				}
				for i := 0; i < 16; i++ {
					l, z := scale(float64(i%2 + 1))
					mat.Zero()
					assembleOnce(asm, mat, layout, l, z)
					mustBitwise(c, fmt.Sprintf("p=%d layout=%d assembly %d", p, layout, i), want[i%2], mat.Vals())
				}
			})
		}
	}
}
