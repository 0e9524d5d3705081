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

func TestShapeFunctionsPartitionOfUnity(t *testing.T) {
	for _, dim := range []int{2, 3} {
		r := NewRef(dim)
		for g := 0; g < r.NG; g++ {
			var s float64
			var ds [3]float64
			for a := 0; a < r.NPE; a++ {
				s += r.N[g*r.NPE+a]
				for d := 0; d < dim; d++ {
					ds[d] += r.DN[(g*r.NPE+a)*dim+d]
				}
			}
			if math.Abs(s-1) > 1e-14 {
				t.Fatalf("dim=%d g=%d: sum N = %v", dim, g, s)
			}
			for d := 0; d < dim; d++ {
				if math.Abs(ds[d]) > 1e-14 {
					t.Fatalf("dim=%d g=%d: sum dN_%d = %v", dim, g, d, ds[d])
				}
			}
		}
		var w float64
		for g := 0; g < r.NG; g++ {
			w += r.W[g]
		}
		if math.Abs(w-1) > 1e-14 {
			t.Fatalf("dim=%d: weights sum %v", dim, w)
		}
	}
}

func TestShapeKroneckerAtCorners(t *testing.T) {
	for _, dim := range []int{2, 3} {
		r := NewRef(dim)
		out := make([]float64, r.NPE)
		x := make([]float64, dim)
		for c := 0; c < r.NPE; c++ {
			for d := 0; d < dim; d++ {
				x[d] = float64((c >> d) & 1)
			}
			r.Shape(x, out)
			for a := 0; a < r.NPE; a++ {
				want := 0.0
				if a == c {
					want = 1
				}
				if math.Abs(out[a]-want) > 1e-14 {
					t.Fatalf("dim=%d N_%d(corner %d) = %v", dim, a, c, out[a])
				}
			}
		}
	}
}

func TestMassMatrixIntegratesVolume(t *testing.T) {
	for _, dim := range []int{2, 3} {
		r := NewRef(dim)
		h := 0.25
		ke := make([]float64, r.NPE*r.NPE)
		r.Mass(h, 1, ke)
		var s float64
		for _, v := range ke {
			s += v
		}
		if math.Abs(s-pow(h, dim)) > 1e-14 {
			t.Fatalf("dim=%d: mass sum %v want %v", dim, s, pow(h, dim))
		}
	}
}

func TestStiffnessAnnihilatesConstants(t *testing.T) {
	for _, dim := range []int{2, 3} {
		r := NewRef(dim)
		h := 0.5
		ke := make([]float64, r.NPE*r.NPE)
		r.Stiffness(h, 1, ke)
		for a := 0; a < r.NPE; a++ {
			var s float64
			for b := 0; b < r.NPE; b++ {
				s += ke[a*r.NPE+b]
			}
			if math.Abs(s) > 1e-13 {
				t.Fatalf("dim=%d row %d: K*1 = %v", dim, a, s)
			}
		}
	}
}

func TestGemmOpsMatchLoopOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{2, 3} {
		r := NewRef(dim)
		w := NewGemmWork(r)
		h := 0.125
		coef := make([]float64, r.NPE)
		vel := make([]float64, r.NPE*dim)
		for i := range coef {
			coef[i] = 1 + rng.Float64()
		}
		for i := range vel {
			vel[i] = rng.NormFloat64()
		}
		coefG := make([]float64, r.NG)
		r.CoefAtGauss(coef, coefG)

		n2 := r.NPE * r.NPE
		a, b := make([]float64, n2), make([]float64, n2)

		r.Mass(h, 1.7, a)
		r.MassGemm(w, h, 1.7, nil, b)
		cmpSlices(t, "mass", a, b)

		clear64(a)
		clear64(b)
		r.WeightedMass(h, coef, 0.9, a)
		r.MassGemm(w, h, 0.9, coefG, b)
		cmpSlices(t, "wmass", a, b)

		clear64(a)
		clear64(b)
		r.Stiffness(h, 2.1, a)
		r.StiffGemm(w, h, 2.1, nil, b)
		cmpSlices(t, "stiff", a, b)

		clear64(a)
		clear64(b)
		r.WeightedStiffness(h, coef, 1.1, a)
		r.StiffGemm(w, h, 1.1, coefG, b)
		cmpSlices(t, "wstiff", a, b)

		clear64(a)
		clear64(b)
		r.Convection(h, vel, 1.3, a)
		r.ConvGemm(w, h, 1.3, vel, b)
		cmpSlices(t, "conv", a, b)

		// Unit-cell blocks scaled by h vs the quadrature sweeps.
		clear64(a)
		clear64(b)
		r.Mass(h, 1, a)
		r.Stiffness(h, 1, b)
		ms, ks := make([]float64, n2), make([]float64, n2)
		r.MassStiffness(h, ms, ks)
		cmpSlices(t, "scaled mass", a, ms)
		cmpSlices(t, "scaled stiff", b, ks)

		// ∫ (∇N_a·w) N_b with w = ∇u_h contracted with u's coefficient is
		// the weighted-stiffness action: Σ_b G_ab c_b = Σ_b K(c)_ab u_b.
		wG := make([]float64, r.NG*dim)
		for g := 0; g < r.NG; g++ {
			for d := 0; d < dim; d++ {
				wG[g*dim+d] = r.GradAtGauss(g, d, h, vel[:r.NPE])
			}
		}
		clear64(a)
		clear64(b)
		r.GradDotMass(h, wG, 1.4, a)
		r.GradDotMassGemm(w, h, 1.4, wG, b)
		cmpSlices(t, "graddotmass", a, b)
		clear64(b)
		r.WeightedStiffness(h, coef, 1.4, b)
		for i := 0; i < r.NPE; i++ {
			var gc, ku float64
			for j := 0; j < r.NPE; j++ {
				gc += a[i*r.NPE+j] * coef[j]
				ku += b[i*r.NPE+j] * vel[j]
			}
			if math.Abs(gc-ku) > 1e-12 {
				t.Fatalf("graddotmass: row %d: G c = %v, K(c) u = %v", i, gc, ku)
			}
		}

		// Load vector.
		f := make([]float64, r.NPE)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		fG := make([]float64, r.NG)
		r.CoefAtGauss(f, fG)
		va, vb := make([]float64, r.NPE), make([]float64, r.NPE)
		r.LoadVector(h, f, 0.7, va)
		r.LoadGemm(w, h, 0.7, fG, vb)
		cmpSlices(t, "load", va, vb)
	}
}

func clear64(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

func cmpSlices(t *testing.T, name string, a, b []float64) {
	t.Helper()
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("%s: entry %d: loop %v gemm %v", name, i, a[i], b[i])
		}
	}
}

func TestZipUnzipRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ndof, npe := 3, 8
	v := make([]float64, ndof*npe)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	z := make([]float64, len(v))
	back := make([]float64, len(v))
	ZipVec(ndof, npe, v, z)
	UnzipVec(ndof, npe, z, back)
	cmpSlices(t, "zipvec", v, back)

	n := ndof * npe
	ke := make([]float64, n*n)
	for i := range ke {
		ke[i] = rng.NormFloat64()
	}
	blocks := make([][]float64, ndof*ndof)
	for i := range blocks {
		blocks[i] = make([]float64, npe*npe)
	}
	ke2 := make([]float64, n*n)
	ZipMat(ndof, npe, ke, blocks)
	UnzipMat(ndof, npe, blocks, ke2)
	cmpSlices(t, "zipmat", ke, ke2)
}

// buildMesh constructs a balanced adaptive mesh for assembly tests.
func buildMesh(c *par.Comm, dim, base, fine int) *mesh.Mesh {
	tr := gradedTree(dim, base, fine)
	p := c.Size()
	n := tr.Len()
	lo, hi := c.Rank()*n/p, (c.Rank()+1)*n/p
	local := make([]sfc.Octant, hi-lo)
	copy(local, tr.Leaves[lo:hi])
	return mesh.New(c, dim, local)
}

// gradedTree is buildMesh's forest: uniform to level base, refined to
// level fine inside a diamond (2D) or prism (3D) about the centre, 2:1
// balanced, so it carries hanging nodes.
func gradedTree(dim, base, fine int) *octree.Tree {
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
		return math.Abs(x-0.5)+math.Abs(y-0.5) < 0.3
	}, fine, nil).Balance21(nil)
}

func TestAssemblyLayoutsAgree(t *testing.T) {
	// AIJ, BAIJ, and zipped-GEMM assembly must produce the same operator.
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 3} {
			par.Run(p, func(c *par.Comm) {
				m := buildMesh(c, dim, 1, 3)
				ndof := 2
				asm := NewAssembler(m, ndof)
				r := asm.Ref
				npe := r.NPE
				loopKern := func(w, e int, h float64, ke []float64) {
					// dof 0: mass + stiffness; dof 1: mass; coupling 0-1: 0.3*mass.
					blocks := make([][]float64, ndof*ndof)
					for i := range blocks {
						blocks[i] = make([]float64, npe*npe)
					}
					r.Mass(h, 1, blocks[0])
					r.Stiffness(h, 1, blocks[0])
					r.Mass(h, 0.3, blocks[1])
					r.Mass(h, 1, blocks[3])
					UnzipMat(ndof, npe, blocks, ke)
				}
				zipKern := func(w, e int, h float64, blocks [][]float64) {
					wk := asm.Work()
					r.MassGemm(wk, h, 1, nil, blocks[0])
					tmp := make([]float64, npe*npe)
					r.StiffGemm(wk, h, 1, nil, tmp)
					for i := range tmp {
						blocks[0][i] += tmp[i]
					}
					r.MassGemm(wk, h, 0.3, nil, blocks[1])
					r.MassGemm(wk, h, 1, nil, blocks[3])
				}
				aij := asm.NewMatrix(LayoutAIJ)
				baij := asm.NewMatrix(LayoutBAIJ)
				zipped := asm.NewMatrix(LayoutZipped)
				asm.AssembleMatrix(aij, LayoutAIJ, loopKern)
				asm.AssembleMatrix(baij, LayoutBAIJ, loopKern)
				asm.AssembleMatrixZipped(zipped, zipKern)

				x := m.NewVec(ndof)
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < m.NumOwned*ndof; i++ {
					x[i] = rng.NormFloat64()
				}
				y1 := m.NewVec(ndof)
				y2 := m.NewVec(ndof)
				y3 := m.NewVec(ndof)
				aij.Apply(append([]float64(nil), x...), y1)
				baij.Apply(append([]float64(nil), x...), y2)
				zipped.Apply(append([]float64(nil), x...), y3)
				for i := 0; i < m.NumOwned*ndof; i++ {
					if math.Abs(y1[i]-y2[i]) > 1e-10 || math.Abs(y1[i]-y3[i]) > 1e-10 {
						panic(fmt.Sprintf("dim=%d p=%d row %d: aij %v baij %v zip %v", dim, p, i, y1[i], y2[i], y3[i]))
					}
				}
			})
		}
	}
}

// solvePoisson assembles and solves -Δu = f with u=g on the boundary and
// returns the max nodal error against the exact solution.
func solvePoisson(c *par.Comm, dim, base, fine int) float64 {
	m := buildMesh(c, dim, base, fine)
	exact := func(x, y, z float64) float64 {
		if dim == 2 {
			return math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		}
		return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
	}
	rhs := func(x, y, z float64) float64 {
		return float64(dim) * math.Pi * math.Pi * exact(x, y, z)
	}
	asm := NewAssembler(m, 1)
	K := asm.NewMatrix(LayoutBAIJ)
	asm.AssembleMatrix(K, LayoutBAIJ, func(w, e int, h float64, ke []float64) {
		asm.Ref.Stiffness(h, 1, ke)
	})
	b := m.NewVec(1)
	asm.AssembleVector(b, func(e int, h float64, fe []float64) {
		f := make([]float64, asm.Ref.NPE)
		cpe := m.CornersPerElem()
		ox, oy, oz := m.ElemOrigin(e)
		for cx := 0; cx < cpe; cx++ {
			x := ox + h*float64(cx&1)
			y := oy + h*float64((cx>>1)&1)
			z := oz + h*float64((cx>>2)&1)
			f[cx] = rhs(x, y, z)
		}
		asm.Ref.LoadVector(h, f, 1, fe)
	})
	for i := 0; i < m.NumOwned; i++ {
		if m.OnBoundary(i) {
			K.ZeroRow(i, 1)
			b[i] = 0
		}
	}
	x := m.NewVec(1)
	ksp := &la.KSP{Op: K, PC: la.NewPCBJacobiILU0(K), Red: m, Type: la.CG, Rtol: 1e-10}
	res, _ := ksp.Solve(b, x)
	if !res.Converged {
		panic("poisson CG did not converge")
	}
	var maxErr float64
	for i := 0; i < m.NumOwned; i++ {
		px, py, pz := m.NodeCoord(i)
		if e := math.Abs(x[i] - exact(px, py, pz)); e > maxErr {
			maxErr = e
		}
	}
	return m.GlobalMax(maxErr)
}

func TestPoissonConvergesSecondOrder(t *testing.T) {
	for _, p := range []int{1, 4} {
		var e1, e2 float64
		par.Run(p, func(c *par.Comm) {
			a := solvePoisson(c, 2, 3, 4)
			b := solvePoisson(c, 2, 4, 5)
			if c.Rank() == 0 {
				e1, e2 = a, b
			}
		})
		ratio := e1 / e2
		if ratio < 3.0 || ratio > 5.5 {
			t.Fatalf("p=%d: error ratio %v (e1=%g e2=%g), want ~4 for O(h^2)", p, ratio, e1, e2)
		}
	}
}

func TestPoisson3D(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		e := solvePoisson(c, 3, 2, 3)
		if c.Rank() == 0 && (e <= 0 || e > 0.2) {
			panic(fmt.Sprintf("3D poisson error %g out of range", e))
		}
	})
}

func TestVectorAssemblyPathsAgree(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		m := buildMesh(c, 2, 2, 4)
		ndof := 2
		asm := NewAssembler(m, ndof)
		r := asm.Ref
		npe := r.NPE
		src := make([]float64, npe)
		for i := range src {
			src[i] = float64(i + 1)
		}
		v1 := m.NewVec(ndof)
		v2 := m.NewVec(ndof)
		asm.AssembleVector(v1, func(e int, h float64, fe []float64) {
			tmp := make([]float64, npe)
			r.LoadVector(h, src, 1, tmp)
			for a := 0; a < npe; a++ {
				fe[a*ndof] += tmp[a]
				fe[a*ndof+1] += 2 * tmp[a]
			}
		})
		asm.AssembleVectorZipped(v2, func(e int, h float64, fz []float64) {
			w := asm.Work()
			fG := make([]float64, r.NG)
			r.CoefAtGauss(src, fG)
			tmp := make([]float64, npe)
			r.LoadGemm(w, h, 1, fG, tmp)
			for a := 0; a < npe; a++ {
				fz[a] += tmp[a]         // dof 0 block
				fz[npe+a] += 2 * tmp[a] // dof 1 block
			}
		})
		for i := 0; i < m.NumOwned*ndof; i++ {
			if math.Abs(v1[i]-v2[i]) > 1e-12 {
				panic(fmt.Sprintf("vector paths differ at %d: %v vs %v", i, v1[i], v2[i]))
			}
		}
	})
}
