package transfer

import (
	"fmt"
	"math"
	"testing"

	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

func scatterLeaves(t *octree.Tree, rank, p int) []sfc.Octant {
	n := t.Len()
	lo, hi := rank*n/p, (rank+1)*n/p
	out := make([]sfc.Octant, hi-lo)
	copy(out, t.Leaves[lo:hi])
	return out
}

// scatterSkewed is a deliberately different (quadratically growing)
// partition of the same global forest, for partition-only migration tests.
func scatterSkewed(t *octree.Tree, rank, p int) []sfc.Octant {
	n := t.Len()
	lo, hi := n*rank*rank/(p*p), n*(rank+1)*(rank+1)/(p*p)
	out := make([]sfc.Octant, hi-lo)
	copy(out, t.Leaves[lo:hi])
	return out
}

// discTree refines inside a disc to `fine`, `base` elsewhere, balanced.
func discTree(dim, base, fine int, cx, cy, r float64) *octree.Tree {
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
		return math.Hypot(x-cx, y-cy) < r
	}, fine, nil).Balance21(nil)
}

func TestNodalTransferExactForLinearFields(t *testing.T) {
	// Linear fields must transfer exactly in both directions (the old
	// field is piecewise linear and continuous, and evaluation is linear).
	f := func(x, y, z float64) float64 { return 3*x - 2*y + z + 0.5 }
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 3} {
			par.Run(p, func(c *par.Comm) {
				coarse := discTree(dim, 2, 3, 0.3, 0.3, 0.2)
				fine := discTree(dim, 2, 5, 0.7, 0.7, 0.25)
				mOld := mesh.New(c, dim, scatterLeaves(coarse, c.Rank(), p))
				mNew := mesh.New(c, dim, scatterLeaves(fine, c.Rank(), p))
				v := mOld.NewVec(1)
				for i := 0; i < mOld.NumLocal; i++ {
					x, y, z := mOld.NodeCoord(i)
					v[i] = f(x, y, z)
				}
				got := nodal(mOld, v, mNew, 1)
				for i := 0; i < mNew.NumLocal; i++ {
					x, y, z := mNew.NodeCoord(i)
					if math.Abs(got[i]-f(x, y, z)) > 1e-11 {
						panic(fmt.Sprintf("dim=%d p=%d node %d: got %v want %v",
							dim, p, i, got[i], f(x, y, z)))
					}
				}
				// And back: fine -> coarse injection is exact too.
				back := nodal(mNew, got, mOld, 1)
				for i := 0; i < mOld.NumLocal; i++ {
					if math.Abs(back[i]-v[i]) > 1e-11 {
						panic(fmt.Sprintf("dim=%d p=%d: round trip broke node %d", dim, p, i))
					}
				}
			})
		}
	}
}

func TestNodalTransferMultiDof(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		coarse := octree.Uniform(2, 3)
		fine := octree.Uniform(2, 5)
		mOld := mesh.New(c, 2, scatterLeaves(coarse, c.Rank(), 2))
		mNew := mesh.New(c, 2, scatterLeaves(fine, c.Rank(), 2))
		const ndof = 3
		v := mOld.NewVec(ndof)
		for i := 0; i < mOld.NumLocal; i++ {
			x, y, _ := mOld.NodeCoord(i)
			v[i*ndof] = x
			v[i*ndof+1] = y
			v[i*ndof+2] = x + 2*y
		}
		got := nodal(mOld, v, mNew, ndof)
		for i := 0; i < mNew.NumLocal; i++ {
			x, y, _ := mNew.NodeCoord(i)
			want := [3]float64{x, y, x + 2*y}
			for d := 0; d < ndof; d++ {
				if math.Abs(got[i*ndof+d]-want[d]) > 1e-12 {
					panic(fmt.Sprintf("node %d dof %d: got %v want %v", i, d, got[i*ndof+d], want[d]))
				}
			}
		}
	})
}

func TestNodalMultiLevelJump(t *testing.T) {
	// A 4-level jump in one transfer: level-2 uniform to level-6 uniform.
	par.Run(4, func(c *par.Comm) {
		mOld := mesh.New(c, 2, scatterLeaves(octree.Uniform(2, 2), c.Rank(), 4))
		mNew := mesh.New(c, 2, scatterLeaves(octree.Uniform(2, 6), c.Rank(), 4))
		v := mOld.NewVec(1)
		for i := 0; i < mOld.NumLocal; i++ {
			x, y, _ := mOld.NodeCoord(i)
			v[i] = x * y // bilinear: exactly representable per element
		}
		got := nodal(mOld, v, mNew, 1)
		for i := 0; i < mNew.NumLocal; i++ {
			x, y, _ := mNew.NodeCoord(i)
			if math.Abs(got[i]-x*y) > 1e-12 {
				panic("multi-level jump transfer wrong")
			}
		}
	})
}

// TestBatchMatchesPerFieldNodal: one batched call over several fields of
// mixed dof counts must reproduce, bit for bit, the per-field (nodal)
// results — and the workspace must be reusable across calls.
func TestBatchMatchesPerFieldNodal(t *testing.T) {
	for _, p := range []int{1, 3} {
		par.Run(p, func(c *par.Comm) {
			coarse := discTree(2, 2, 4, 0.3, 0.3, 0.25)
			fine := discTree(2, 3, 5, 0.6, 0.6, 0.2)
			mOld := mesh.New(c, 2, scatterLeaves(coarse, c.Rank(), p))
			mNew := mesh.New(c, 2, scatterLeaves(fine, c.Rank(), p))
			mk := func(ndof int, seed float64) []float64 {
				v := mOld.NewVec(ndof)
				for i := 0; i < mOld.NumLocal; i++ {
					x, y, _ := mOld.NodeCoord(i)
					for d := 0; d < ndof; d++ {
						v[i*ndof+d] = math.Sin(seed+3*x+float64(d)) * math.Cos(2*y-seed)
					}
				}
				return v
			}
			a, b, d := mk(2, 0.3), mk(3, 1.7), mk(1, 2.9)
			wantA := nodal(mOld, a, mNew, 2)
			wantB := nodal(mOld, b, mNew, 3)
			wantD := nodal(mOld, d, mNew, 1)
			ws := &Workspace{}
			gotA, gotB, gotD := mNew.NewVec(2), mNew.NewVec(3), mNew.NewVec(1)
			for round := 0; round < 2; round++ { // round 2 reuses the workspace
				for _, v := range [][]float64{gotA, gotB, gotD} {
					for i := range v {
						v[i] = 0
					}
				}
				Batch(mOld, mNew, []Field{
					{Src: a, Dst: gotA, Ndof: 2},
					{Src: b, Dst: gotB, Ndof: 3},
					{Src: d, Dst: gotD, Ndof: 1},
				}, ws)
				check := func(name string, got, want []float64) {
					for i := range want {
						if got[i] != want[i] {
							panic(fmt.Sprintf("p=%d round=%d field %s entry %d: batch %v nodal %v",
								p, round, name, i, got[i], want[i]))
						}
					}
				}
				check("a", gotA, wantA)
				check("b", gotB, wantB)
				check("d", gotD, wantD)
			}
		})
	}
}

// TestBatchExactForLinearFields: refine and coarsen directions reproduce
// linear fields exactly through the batched path.
func TestBatchExactForLinearFields(t *testing.T) {
	f := func(x, y float64, d int) float64 { return 3*x - 2*y + 0.5 + float64(d)*(x+y) }
	par.Run(3, func(c *par.Comm) {
		coarse := discTree(2, 2, 3, 0.3, 0.3, 0.2)
		fine := discTree(2, 2, 5, 0.7, 0.7, 0.25)
		mC := mesh.New(c, 2, scatterLeaves(coarse, c.Rank(), 3))
		mF := mesh.New(c, 2, scatterLeaves(fine, c.Rank(), 3))
		for _, dir := range []struct{ from, to *mesh.Mesh }{{mC, mF}, {mF, mC}} {
			src := dir.from.NewVec(2)
			for i := 0; i < dir.from.NumLocal; i++ {
				x, y, _ := dir.from.NodeCoord(i)
				src[2*i], src[2*i+1] = f(x, y, 0), f(x, y, 1)
			}
			dst := dir.to.NewVec(2)
			Batch(dir.from, dir.to, []Field{{Src: src, Dst: dst, Ndof: 2}}, nil)
			for i := 0; i < dir.to.NumLocal; i++ {
				x, y, _ := dir.to.NodeCoord(i)
				for d := 0; d < 2; d++ {
					if math.Abs(dst[2*i+d]-f(x, y, d)) > 1e-11 {
						panic(fmt.Sprintf("node %d dof %d: got %v want %v", i, d, dst[2*i+d], f(x, y, d)))
					}
				}
			}
		}
	})
}

// TestBatchFewerMessagesThanSequential: the batched transfer must move
// all fields with strictly less communication than three sequential nodal
// rounds (one splitter gather and one NBX query/reply round instead of
// three of each).
func TestBatchFewerMessagesThanSequential(t *testing.T) {
	const p = 4
	par.Run(p, func(c *par.Comm) {
		coarse := discTree(2, 3, 4, 0.3, 0.3, 0.25)
		fine := discTree(2, 3, 5, 0.6, 0.6, 0.2)
		mOld := mesh.New(c, 2, scatterLeaves(coarse, c.Rank(), p))
		mNew := mesh.New(c, 2, scatterLeaves(fine, c.Rank(), p))
		a, b, d := mOld.NewVec(2), mOld.NewVec(2), mOld.NewVec(1)
		for i := range a {
			a[i] = float64(i % 13)
		}
		c.Barrier()
		before := c.Stats().Messages.Load()
		nodal(mOld, a, mNew, 2)
		nodal(mOld, b, mNew, 2)
		nodal(mOld, d, mNew, 1)
		c.Barrier()
		mid := c.Stats().Messages.Load()
		gotA, gotB, gotD := mNew.NewVec(2), mNew.NewVec(2), mNew.NewVec(1)
		Batch(mOld, mNew, []Field{
			{Src: a, Dst: gotA, Ndof: 2},
			{Src: b, Dst: gotB, Ndof: 2},
			{Src: d, Dst: gotD, Ndof: 1},
		}, nil)
		c.Barrier()
		after := c.Stats().Messages.Load()
		if c.Rank() == 0 {
			seq, batch := mid-before, after-mid
			if batch >= seq {
				panic(fmt.Sprintf("batched transfer sent %d messages, sequential %d", batch, seq))
			}
		}
	})
}

// keyVal is a deterministic, decimal-unfriendly per-key value so any
// interpolation (rather than a bitwise copy) is detectable.
func keyVal(k mesh.NodeKey, d int) float64 {
	return math.Sin(float64(k.X)*12.9898e-7 + float64(k.Y)*78.233e-7 + float64(d)*0.71)
}

// TestMigrateNodalBitwiseAcrossPartitions: a partition-only migration
// must hand every rank count the exact serial field — bitwise — on an
// adaptive (hanging-node) mesh where interpolation would not be exact.
func TestMigrateNodalBitwiseAcrossPartitions(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		par.Run(p, func(c *par.Comm) {
			tr := discTree(2, 2, 5, 0.5, 0.5, 0.3)
			mOld := mesh.New(c, 2, scatterLeaves(tr, c.Rank(), p))
			mNew := mesh.New(c, 2, scatterSkewed(tr, c.Rank(), p))
			src2 := mOld.NewVec(2)
			src1 := mOld.NewVec(1)
			for i := 0; i < mOld.NumLocal; i++ {
				k := mOld.Keys[i]
				src2[2*i], src2[2*i+1] = keyVal(k, 0), keyVal(k, 1)
				src1[i] = keyVal(k, 2)
			}
			dst2, dst1 := mNew.NewVec(2), mNew.NewVec(1)
			MigrateNodal(mOld, mNew, []Field{
				{Src: src2, Dst: dst2, Ndof: 2},
				{Src: src1, Dst: dst1, Ndof: 1},
			})
			for i := 0; i < mNew.NumLocal; i++ {
				k := mNew.Keys[i]
				if dst2[2*i] != keyVal(k, 0) || dst2[2*i+1] != keyVal(k, 1) || dst1[i] != keyVal(k, 2) {
					panic(fmt.Sprintf("p=%d: node %v not bitwise-preserved", p, k))
				}
			}
		})
	}
}

// TestMigrateElemBitwiseAcrossPartitions: per-element values follow their
// contiguous SFC ranges exactly across a repartition.
func TestMigrateElemBitwiseAcrossPartitions(t *testing.T) {
	elemVal := func(o sfc.Octant) float64 {
		return math.Sin(float64(o.X)*3.7e-7 + float64(o.Y)*1.3e-7 + float64(o.Level))
	}
	for _, p := range []int{1, 2, 4} {
		par.Run(p, func(c *par.Comm) {
			tr := discTree(2, 2, 5, 0.4, 0.6, 0.25)
			oldLocal := scatterLeaves(tr, c.Rank(), p)
			newLocal := scatterSkewed(tr, c.Rank(), p)
			vals := make([]float64, len(oldLocal))
			for i, o := range oldLocal {
				vals[i] = elemVal(o)
			}
			got := MigrateElem(c, oldLocal, vals, newLocal)
			for i, o := range newLocal {
				if got[i] != elemVal(o) {
					panic(fmt.Sprintf("p=%d: element %v value not bitwise-preserved", p, o))
				}
			}
		})
	}
}

func TestCellCenteredCopyAndAverage(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		par.Run(p, func(c *par.Comm) {
			coarse := octree.Uniform(2, 2) // 16 elements
			fine := octree.Uniform(2, 4)   // 256 elements
			oldLocal := scatterLeaves(coarse, c.Rank(), p)
			newLocal := scatterLeaves(fine, c.Rank(), p)
			oldVals := make([]float64, len(oldLocal))
			for i, o := range oldLocal {
				oldVals[i] = float64(o.X / o.Side()) // column index value
			}
			got := CellCentered(c, 2, oldLocal, oldVals, newLocal)
			for i, q := range newLocal {
				wantCol := float64(q.X / (q.Side() * 4)) // parent column
				if math.Abs(got[i]-wantCol) > 1e-12 {
					panic(fmt.Sprintf("p=%d: coarse->fine copy wrong at %v: %v want %v", p, q, got[i], wantCol))
				}
			}
			// Fine->coarse: averages of the fine values.
			fineVals := make([]float64, len(newLocal))
			for i := range fineVals {
				fineVals[i] = 2.5
			}
			back := CellCentered(c, 2, newLocal, fineVals, oldLocal)
			for i := range back {
				if math.Abs(back[i]-2.5) > 1e-12 {
					panic("fine->coarse average wrong")
				}
			}
		})
	}
}

func TestLevelByLevelMatchesSinglePass(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		oldTree := octree.Uniform(2, 2)
		newTree := octree.Uniform(2, 5)
		mOld := mesh.New(c, 2, append([]sfc.Octant(nil), oldTree.Leaves...))
		v := mOld.NewVec(1)
		for i := 0; i < mOld.NumLocal; i++ {
			x, y, _ := mOld.NodeCoord(i)
			v[i] = 1 + x + y + x*y
		}
		mNew := mesh.New(c, 2, append([]sfc.Octant(nil), newTree.Leaves...))
		single := nodal(mOld, v, mNew, 1)
		multi, mFinal, passes := nodalLevelByLevel(mOld, v, newTree, 1)
		if passes != 3 {
			panic(fmt.Sprintf("expected 3 one-level passes, got %d", passes))
		}
		if mFinal.NumGlobal != mNew.NumGlobal {
			panic("level-by-level did not reach the target grid")
		}
		for i := 0; i < mFinal.NumLocal; i++ {
			j, ok := mNew.NodeIndex(mFinal.Keys[i])
			if !ok {
				panic("node set mismatch")
			}
			if math.Abs(multi[i]-single[j]) > 1e-12 {
				panic(fmt.Sprintf("node %d: level-by-level %v single-pass %v", i, multi[i], single[j]))
			}
		}
	})
}
