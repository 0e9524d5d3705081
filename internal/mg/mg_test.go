package mg

import (
	"fmt"
	"math"
	"testing"

	"proteus/internal/fem"
	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// gradedMesh builds a distributed 2:1-balanced mesh refined toward a
// disc around (0.35, 0.6): uniform at base, down to fine inside, with
// the leaves sliced evenly across the ranks (the same layout the chns
// tests use, so the hierarchy sees a genuinely non-uniform forest).
func gradedMesh(c *par.Comm, dim, base, fine int) *mesh.Mesh {
	tr := octree.Build(dim, func(o sfc.Octant) bool {
		if int(o.Level) < base {
			return true
		}
		if int(o.Level) >= fine {
			return false
		}
		s := float64(o.Side()) / float64(sfc.MaxCoord)
		x := float64(o.X)/float64(sfc.MaxCoord) + s/2
		y := float64(o.Y)/float64(sfc.MaxCoord) + s/2
		return math.Hypot(x-0.35, y-0.6) < 0.25
	}, fine, nil).Balance21(nil)
	p := c.Size()
	n := tr.Len()
	lo, hi := c.Rank()*n/p, (c.Rank()+1)*n/p
	local := make([]sfc.Octant, hi-lo)
	copy(local, tr.Leaves[lo:hi])
	return mesh.New(c, dim, local)
}

// TestHierarchyCoarsens: the ladder has at least two rungs over a graded
// forest, every rung is strictly globally coarser than the one above,
// and level 0 is the fine mesh itself.
func TestHierarchyCoarsens(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		par.Run(ranks, func(c *par.Comm) {
			m := gradedMesh(c, 2, 2, 5)
			h := NewHierarchy(m, HierarchyOptions{})
			if h.Meshes[0] != m {
				t.Fatal("level 0 must be the fine mesh")
			}
			if h.Levels() < 2 {
				t.Fatalf("ranks=%d: expected a multi-level ladder, got %d levels", ranks, h.Levels())
			}
			prev := globalElems(c, m)
			for l := 1; l < h.Levels(); l++ {
				cnt := globalElems(c, h.Meshes[l])
				if cnt >= prev {
					t.Fatalf("ranks=%d level %d: %d elems, not coarser than %d", ranks, l, cnt, prev)
				}
				prev = cnt
			}
		})
	}
}

// TestTransferLinearExact: multilinear elements reproduce linear fields,
// so both the coarsening injection (Down) and the prolongation (Up)
// must interpolate f(x,y) = 2x - 3y + 1/4 exactly at every owned target
// node, across ranks and through hanging-node constraints.
func TestTransferLinearExact(t *testing.T) {
	f := func(x, y float64) float64 { return 2*x - 3*y + 0.25 }
	fill := func(m *mesh.Mesh) []float64 {
		v := m.NewVec(1)
		for i := 0; i < m.NumLocal; i++ {
			x, y, _ := m.NodeCoord(i)
			v[i] = f(x, y)
		}
		return v
	}
	for _, ranks := range []int{1, 3} {
		par.Run(ranks, func(c *par.Comm) {
			m := gradedMesh(c, 2, 2, 5)
			h := NewHierarchy(m, HierarchyOptions{})
			for l := 1; l < h.Levels(); l++ {
				fineM, coarseM := h.Meshes[l-1], h.Meshes[l]
				down := fill(fineM)
				got := coarseM.NewVec(1)
				h.Down[l].Eval(down, 1, got, true)
				for i := 0; i < coarseM.NumOwned; i++ {
					x, y, _ := coarseM.NodeCoord(i)
					if math.Abs(got[i]-f(x, y)) > 1e-12 {
						t.Fatalf("ranks=%d down %d: node %d got %v want %v", ranks, l, i, got[i], f(x, y))
					}
				}
				up := fill(coarseM)
				got2 := fineM.NewVec(1)
				h.Up[l].Eval(up, 1, got2, true)
				for i := 0; i < fineM.NumOwned; i++ {
					x, y, _ := fineM.NodeCoord(i)
					if math.Abs(got2[i]-f(x, y)) > 1e-12 {
						t.Fatalf("ranks=%d up %d: node %d got %v want %v", ranks, l, i, got2[i], f(x, y))
					}
				}
			}
		})
	}
}

// TestTransferTranspose: Restrict is the exact transpose of Eval on the
// prolongation transfers — ⟨P x, y⟩ over fine owned nodes equals
// ⟨x, Pᵀ y⟩ over coarse owned nodes up to global-sum rounding.
func TestTransferTranspose(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		par.Run(ranks, func(c *par.Comm) {
			m := gradedMesh(c, 2, 2, 5)
			h := NewHierarchy(m, HierarchyOptions{})
			for l := 1; l < h.Levels(); l++ {
				fineM, coarseM := h.Meshes[l-1], h.Meshes[l]
				x := coarseM.NewVec(1)
				for i := 0; i < coarseM.NumLocal; i++ {
					cx, cy, _ := coarseM.NodeCoord(i)
					x[i] = math.Sin(7*cx) + math.Cos(5*cy)
				}
				y := fineM.NewVec(1)
				for i := 0; i < fineM.NumOwned; i++ {
					fx, fy, _ := fineM.NodeCoord(i)
					y[i] = fx*fy + 0.5*fx - fy
				}
				px := fineM.NewVec(1)
				h.Up[l].Eval(x, 1, px, true)
				var a float64
				for i := 0; i < fineM.NumOwned; i++ {
					a += px[i] * y[i]
				}
				a = fineM.GlobalSum(a)
				pty := coarseM.NewVec(1)
				h.Up[l].Restrict(y, 1, pty)
				var b float64
				for i := 0; i < coarseM.NumOwned; i++ {
					b += x[i] * pty[i]
				}
				b = coarseM.GlobalSum(b)
				if math.Abs(a-b) > 1e-10*(1+math.Abs(a)) {
					t.Fatalf("ranks=%d level %d: <Px,y>=%v <x,P'y>=%v", ranks, l, a, b)
				}
			}
		})
	}
}

// testOperator assembles M + K with unit coefficients on mesh m.
func testOperator(m *mesh.Mesh) *la.BSRMat {
	asm := fem.NewAssembler(m, 1)
	mat := asm.NewMatrix(fem.LayoutAIJ)
	asm.AssembleMatrix(mat, fem.LayoutAIJ, func(w, e int, h float64, ke []float64) {
		asm.Ref.Mass(h, 1, ke)
		asm.Ref.Stiffness(h, 1, ke)
	})
	return mat
}

// testConfig is the Ndof-1 GMG setup used by the cycle tests: no
// injected coefficients, coarse operators assembled as M + K.
func testConfig() Config {
	return Config{
		Ndof: 1,
		Assemble: func(lvl *Level) {
			kern, ok := lvl.Scratch.(func(w, e int, h float64, ke []float64))
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

// TestGMGAcceleratesCG: CG on the graded-mesh M + K system needs
// strictly fewer iterations with the V-cycle than with point Jacobi,
// and the hierarchy pays off identically at any rank count.
func TestGMGAcceleratesCG(t *testing.T) {
	solve := func(ranks int, useGMG bool) (its int, ok bool) {
		par.Run(ranks, func(c *par.Comm) {
			m := gradedMesh(c, 2, 2, 5)
			mat := testOperator(m)
			var pc la.PC
			if useGMG {
				g := NewPCGMG(NewHierarchy(m, HierarchyOptions{}), nil, testConfig())
				g.SetFineOperator(mat)
				g.Refresh()
				pc = g
			} else {
				pc = la.NewPCJacobi(mat)
			}
			b := m.NewVec(1)
			for i := 0; i < m.NumOwned; i++ {
				x, y, _ := m.NodeCoord(i)
				b[i] = math.Sin(3 * x * y)
			}
			x := m.NewVec(1)
			ksp := &la.KSP{Type: la.CG, Rtol: 1e-10, Op: mat, PC: pc, Red: m}
			res, err := ksp.Solve(b, x)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				its, ok = res.Iterations, res.Converged
			}
		})
		return its, ok
	}
	for _, ranks := range []int{1, 2} {
		gmgIts, ok := solve(ranks, true)
		if !ok {
			t.Fatalf("ranks=%d: GMG-CG did not converge", ranks)
		}
		jacIts, ok := solve(ranks, false)
		if !ok {
			t.Fatalf("ranks=%d: Jacobi-CG did not converge", ranks)
		}
		if gmgIts >= jacIts {
			t.Fatalf("ranks=%d: GMG %d iterations, Jacobi %d — no speedup", ranks, gmgIts, jacIts)
		}
		t.Logf("ranks=%d: CG iterations gmg=%d jacobi=%d", ranks, gmgIts, jacIts)
	}
}

// TestVCycleWarmApplyZeroAlloc: once the hierarchy and level state are
// warm, both Refresh and Apply allocate nothing (serial rank — the same
// discipline the chns warm-step test enforces end to end).
func TestVCycleWarmApplyZeroAlloc(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		m := gradedMesh(c, 2, 2, 5)
		h := NewHierarchy(m, HierarchyOptions{})
		mat := testOperator(m)
		g := NewPCGMG(h, nil, testConfig())
		g.SetFineOperator(mat)
		g.Refresh()
		r := m.NewVec(1)
		for i := 0; i < m.NumOwned; i++ {
			x, y, _ := m.NodeCoord(i)
			r[i] = x - y*y
		}
		z := m.NewVec(1)
		g.Apply(r[:m.NumOwned], z[:m.NumOwned])
		if a := testing.AllocsPerRun(10, func() { g.Refresh() }); a != 0 {
			t.Fatalf("warm Refresh allocates %v/op", a)
		}
		if a := testing.AllocsPerRun(10, func() { g.Apply(r[:m.NumOwned], z[:m.NumOwned]) }); a != 0 {
			t.Fatalf("warm Apply allocates %v/op", a)
		}
	})
}

// pinBoundary makes every owned boundary node's row of a scalar operator
// an identity row: the no-slip pins of the NS stage.
func pinBoundary(m *mesh.Mesh, mat *la.BSRMat) {
	for i := 0; i < m.NumOwned; i++ {
		if m.OnBoundary(i) {
			mat.ZeroRow(i, 1)
		}
	}
}

// TestVCycleInterleavedMatchesPerComponent: one V-cycle of a k-component
// system on scalar level operators (A ⊗ I_k, the NS momentum shape) equals
// k independent one-component cycles, one per component, bit for bit — on
// graded hanging-node meshes in 2D and 3D at 1 and 2 ranks, with the
// Dirichlet masking and pinned boundary rows on every level.
func TestVCycleInterleavedMatchesPerComponent(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, ranks := range []int{1, 2} {
			par.Run(ranks, func(c *par.Comm) {
				k := dim
				m := gradedMesh(c, dim, 2, 5-dim/3)
				h := NewHierarchy(m, HierarchyOptions{})
				if h.Levels() < 3 {
					panic(fmt.Sprintf("dim=%d ranks=%d: %d levels, want a ladder with coarse levels", dim, ranks, h.Levels()))
				}
				cycle := func(ndof int) *PCGMG {
					cfg := testConfig()
					assemble := cfg.Assemble
					cfg.Ndof, cfg.BoundaryDirichlet = ndof, true
					cfg.Assemble = func(lvl *Level) {
						assemble(lvl)
						pinBoundary(lvl.M, lvl.Mat)
					}
					fine := testOperator(m)
					pinBoundary(m, fine)
					fine.SetComps(ndof)
					g := NewPCGMG(h, nil, cfg)
					g.SetFineOperator(fine)
					g.Refresh()
					return g
				}
				gk, g1 := cycle(k), cycle(1)
				n := m.NumOwned
				r, z := make([]float64, n*k), make([]float64, n*k)
				for i := 0; i < n; i++ {
					x, y, w := m.NodeCoord(i)
					for d := 0; d < k; d++ {
						r[i*k+d] = math.Sin(float64(7+3*d)*x)*math.Cos(9*y) + float64(d)*w - x*y
					}
				}
				gk.Apply(r, z)
				rd, zd := make([]float64, n), make([]float64, n)
				for d := 0; d < k; d++ {
					for i := range rd {
						rd[i] = r[i*k+d]
					}
					g1.Apply(rd, zd)
					for i := range zd {
						if math.Float64bits(z[i*k+d]) != math.Float64bits(zd[i]) {
							panic(fmt.Sprintf("dim=%d ranks=%d rank %d: node %d component %d = %v, one-component cycle %v",
								dim, ranks, c.Rank(), i, d, z[i*k+d], zd[i]))
						}
					}
				}
			})
		}
	}
}
