package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// buildGlobal constructs a balanced global tree for testing: uniform at
// base level plus deep refinement inside a disc around (cx, cy, cz).
func buildGlobal(dim, base, fine int, cx, cy, cz, r float64) *octree.Tree {
	t := octree.Build(dim, func(o sfc.Octant) bool {
		if int(o.Level) < base {
			return true
		}
		if int(o.Level) >= fine {
			return false
		}
		// Refine if the octant's center is within r of the given point.
		s := float64(o.Side()) / float64(sfc.MaxCoord)
		x := float64(o.X)/float64(sfc.MaxCoord) + s/2
		y := float64(o.Y)/float64(sfc.MaxCoord) + s/2
		z := float64(o.Z)/float64(sfc.MaxCoord) + s/2
		dx, dy, dz := x-cx, y-cy, z-cz
		if dim == 2 {
			dz = 0
		}
		return math.Sqrt(dx*dx+dy*dy+dz*dz) < r
	}, fine, nil)
	return t.Balance21(nil)
}

func scatterLeaves(t *octree.Tree, rank, p int) []sfc.Octant {
	n := t.Len()
	lo, hi := rank*n/p, (rank+1)*n/p
	out := make([]sfc.Octant, hi-lo)
	copy(out, t.Leaves[lo:hi])
	return out
}

func TestUniformMeshNodeCount(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, level := range []int{1, 2, 3} {
			for _, p := range []int{1, 2, 4} {
				var global int64
				par.Run(p, func(c *par.Comm) {
					tr := octree.Uniform(dim, level)
					m := New(c, dim, scatterLeaves(tr, c.Rank(), p))
					if m.HangingCorners != 0 {
						panic("uniform mesh must have no hanging corners")
					}
					if c.Rank() == 0 {
						global = m.NumGlobal
					}
				})
				n := int64(1<<level) + 1
				want := n * n
				if dim == 3 {
					want *= n
				}
				if global != want {
					t.Fatalf("dim=%d level=%d p=%d: %d global nodes want %d", dim, level, p, global, want)
				}
			}
		}
	}
}

func TestGlobalIDsUniqueAndContiguous(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 3, 4} {
			par.Run(p, func(c *par.Comm) {
				tr := buildGlobal(dim, 2, 4, 0.5, 0.5, 0.5, 0.2)
				m := New(c, dim, scatterLeaves(tr, c.Rank(), p))
				// Owned IDs must be [GlobalStart, GlobalStart+NumOwned).
				for i := 0; i < m.NumOwned; i++ {
					if m.GlobalID[i] != m.GlobalStart+int64(i) {
						panic("owned IDs not contiguous")
					}
				}
				// Gather all owned IDs and check global coverage.
				ids := par.Allgatherv(c, m.GlobalID[:m.NumOwned])
				if c.Rank() == 0 {
					sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
					if int64(len(ids)) != m.NumGlobal {
						panic(fmt.Sprintf("dim=%d p=%d: %d owned IDs, %d global", dim, p, len(ids), m.NumGlobal))
					}
					for i, id := range ids {
						if id != int64(i) {
							panic("global IDs not a contiguous range")
						}
					}
				}
				// Ghost IDs must agree with the owner's numbering: verified
				// indirectly by cross-rank key/ID consistency.
				type kv struct {
					Key NodeKey
					ID  int64
				}
				var all []kv
				for i := 0; i < m.NumLocal; i++ {
					all = append(all, kv{m.Keys[i], m.GlobalID[i]})
				}
				flat := par.Allgatherv(c, all)
				if c.Rank() == 0 {
					seen := map[NodeKey]int64{}
					for _, e := range flat {
						if prev, ok := seen[e.Key]; ok && prev != e.ID {
							panic(fmt.Sprintf("node %v has IDs %d and %d", e.Key, prev, e.ID))
						}
						seen[e.Key] = e.ID
					}
				}
			})
		}
	}
}

func TestHangingConstraintWeights(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		tr := buildGlobal(2, 1, 3, 0.25, 0.25, 0, 0.2)
		m := New(c, 2, scatterLeaves(tr, 0, 1))
		if m.HangingCorners == 0 {
			panic("adaptive mesh must have hanging corners")
		}
		cpe := m.CornersPerElem()
		for e := 0; e < m.NumElems(); e++ {
			for cx := 0; cx < cpe; cx++ {
				_, w := m.Corner(e, cx)
				var s float64
				for _, wk := range w {
					s += wk
				}
				if math.Abs(s-1) > 1e-14 {
					panic(fmt.Sprintf("constraint weights sum to %v", s))
				}
			}
		}
	})
}

func TestHangingInterpolationIsLinear(t *testing.T) {
	// Gathering a linear field through constraints must reproduce the
	// field exactly at every element corner (linear consistency of the
	// hanging-node interpolation).
	for _, dim := range []int{2, 3} {
		par.Run(2, func(c *par.Comm) {
			tr := buildGlobal(dim, 1, 4, 0.3, 0.6, 0.4, 0.25)
			m := New(c, dim, scatterLeaves(tr, c.Rank(), 2))
			f := func(x, y, z float64) float64 { return 2*x - 3*y + 0.5*z + 1 }
			v := m.NewVec(1)
			for i := 0; i < m.NumLocal; i++ {
				x, y, z := m.NodeCoord(i)
				v[i] = f(x, y, z)
			}
			buf := make([]float64, m.CornersPerElem())
			for e := 0; e < m.NumElems(); e++ {
				m.GatherElem(e, v, 1, buf)
				h := m.ElemSize(e)
				ox, oy, oz := m.ElemOrigin(e)
				for cx := 0; cx < m.CornersPerElem(); cx++ {
					x := ox + h*float64(cx&1)
					y := oy + h*float64((cx>>1)&1)
					z := oz
					if dim == 3 {
						z += h * float64((cx>>2)&1)
					}
					if math.Abs(buf[cx]-f(x, y, z)) > 1e-12 {
						panic(fmt.Sprintf("dim=%d elem %d corner %d: got %v want %v",
							dim, e, cx, buf[cx], f(x, y, z)))
					}
				}
			}
		})
	}
}

func TestGhostReadConsistency(t *testing.T) {
	par.Run(4, func(c *par.Comm) {
		tr := buildGlobal(2, 2, 4, 0.5, 0.5, 0, 0.2)
		m := New(c, 2, scatterLeaves(tr, c.Rank(), 4))
		v := m.NewVec(1)
		// Owners write their global ID; after GhostRead every local node
		// must hold its owner's value.
		for i := 0; i < m.NumOwned; i++ {
			v[i] = float64(m.GlobalID[i])
		}
		m.GhostRead(v, 1)
		for i := 0; i < m.NumLocal; i++ {
			if v[i] != float64(m.GlobalID[i]) {
				panic(fmt.Sprintf("rank %d node %d: ghost value %v want %v", c.Rank(), i, v[i], float64(m.GlobalID[i])))
			}
		}
	})
}

func TestGhostWriteAccumulate(t *testing.T) {
	par.Run(4, func(c *par.Comm) {
		tr := buildGlobal(2, 2, 4, 0.5, 0.5, 0, 0.2)
		m := New(c, 2, scatterLeaves(tr, c.Rank(), 4))
		// Every rank contributes 1 to every local node; after GhostWrite,
		// an owned node's value equals the number of ranks using it.
		v := m.NewVec(1)
		for i := range v {
			v[i] = 1
		}
		m.GhostWrite(v, 1, Add, 0)
		// Cross-check: gather (key -> count of ranks using it).
		type ku struct {
			Key NodeKey
		}
		var used []ku
		for i := 0; i < m.NumLocal; i++ {
			used = append(used, ku{m.Keys[i]})
		}
		flat := par.Allgatherv(c, used)
		counts := map[NodeKey]float64{}
		for _, e := range flat {
			counts[e.Key]++
		}
		for i := 0; i < m.NumOwned; i++ {
			if v[i] != counts[m.Keys[i]] {
				panic(fmt.Sprintf("owned node %v: accumulated %v want %v", m.Keys[i], v[i], counts[m.Keys[i]]))
			}
		}
	})
}

// lumpedMassKernel is a simple symmetric elemental operator (diagonal
// lumped mass): out_c = (h^dim / 2^dim) * in_c.
func lumpedMassKernel(dim int) ElemKernel {
	return func(e int, h float64, in, out []float64) {
		vol := math.Pow(h, float64(dim))
		f := vol / float64(int(1)<<dim)
		for i := range in {
			out[i] = f * in[i]
		}
	}
}

func TestMatVecLumpedMassIntegratesVolume(t *testing.T) {
	// sum(M_lumped * 1) = domain volume = 1, on any mesh and rank count.
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 2, 4} {
			par.Run(p, func(c *par.Comm) {
				tr := buildGlobal(dim, 1, 4, 0.4, 0.4, 0.4, 0.3)
				m := New(c, dim, scatterLeaves(tr, c.Rank(), p))
				in := m.NewVec(1)
				out := m.NewVec(1)
				for i := range in {
					in[i] = 1
				}
				m.MatVec(in, out, 1, lumpedMassKernel(dim))
				var s float64
				for i := 0; i < m.NumOwned; i++ {
					s += out[i]
				}
				tot := m.GlobalSum(s)
				if math.Abs(tot-1) > 1e-12 {
					panic(fmt.Sprintf("dim=%d p=%d: volume %v", dim, p, tot))
				}
			})
		}
	}
}

// gatherByGlobalID collects the owned segment of v into a dense global
// array on rank 0.
func gatherByGlobalID(c *par.Comm, m *Mesh, v []float64) []float64 {
	type kv struct {
		ID  int64
		Val float64
	}
	var local []kv
	for i := 0; i < m.NumOwned; i++ {
		local = append(local, kv{m.GlobalID[i], v[i]})
	}
	flat := par.Allgatherv(c, local)
	if c.Rank() != 0 {
		return nil
	}
	out := make([]float64, m.NumGlobal)
	for _, e := range flat {
		out[e.ID] = e.Val
	}
	return out
}

func TestMatVecMatchesSerial(t *testing.T) {
	// The distributed MATVEC must produce identical results (up to
	// floating-point associativity in ghost accumulation) to a serial run,
	// for a nontrivial kernel mixing corner values.
	mix := func(e int, h float64, in, out []float64) {
		n := len(in)
		var avg float64
		for _, x := range in {
			avg += x
		}
		avg /= float64(n)
		for i := range out {
			out[i] = h * (in[i] + 0.5*avg)
		}
	}
	for _, dim := range []int{2, 3} {
		var serial []float64
		var keyOrder map[NodeKey]int64
		par.Run(1, func(c *par.Comm) {
			tr := buildGlobal(dim, 1, 4, 0.3, 0.5, 0.5, 0.25)
			m := New(c, dim, scatterLeaves(tr, 0, 1))
			in := m.NewVec(1)
			for i := range in {
				x, y, z := m.NodeCoord(i)
				in[i] = math.Sin(3*x) + y*y - z
			}
			out := m.NewVec(1)
			m.MatVec(in, out, 1, mix)
			serial = gatherByGlobalID(c, m, out)
			keyOrder = make(map[NodeKey]int64)
			for i := 0; i < m.NumOwned; i++ {
				keyOrder[m.Keys[i]] = m.GlobalID[i]
			}
		})
		for _, p := range []int{2, 4, 7} {
			var parallel []float64
			var parKeys map[NodeKey]int64
			par.Run(p, func(c *par.Comm) {
				tr := buildGlobal(dim, 1, 4, 0.3, 0.5, 0.5, 0.25)
				m := New(c, dim, scatterLeaves(tr, c.Rank(), p))
				in := m.NewVec(1)
				for i := range in {
					x, y, z := m.NodeCoord(i)
					in[i] = math.Sin(3*x) + y*y - z
				}
				out := m.NewVec(1)
				m.MatVec(in, out, 1, mix)
				res := gatherByGlobalID(c, m, out)
				if c.Rank() == 0 {
					parallel = res
					parKeys = make(map[NodeKey]int64)
				}
				type kid struct {
					Key NodeKey
					ID  int64
				}
				var kl []kid
				for i := 0; i < m.NumOwned; i++ {
					kl = append(kl, kid{m.Keys[i], m.GlobalID[i]})
				}
				flat := par.Allgatherv(c, kl)
				if c.Rank() == 0 {
					for _, e := range flat {
						parKeys[e.Key] = e.ID
					}
				}
			})
			if len(parallel) != len(serial) {
				t.Fatalf("dim=%d p=%d: %d nodes vs serial %d", dim, p, len(parallel), len(serial))
			}
			// Compare by key (numbering may differ across rank counts).
			for key, sid := range keyOrder {
				pid, ok := parKeys[key]
				if !ok {
					t.Fatalf("dim=%d p=%d: node %v missing in parallel run", dim, p, key)
				}
				if math.Abs(serial[sid]-parallel[pid]) > 1e-11 {
					t.Fatalf("dim=%d p=%d node %v: serial %v parallel %v", dim, p, key, serial[sid], parallel[pid])
				}
			}
		}
	}
}

func TestMultiDofVectors(t *testing.T) {
	par.Run(3, func(c *par.Comm) {
		tr := buildGlobal(2, 2, 3, 0.5, 0.5, 0, 0.2)
		m := New(c, 2, scatterLeaves(tr, c.Rank(), 3))
		const ndof = 3
		v := m.NewVec(ndof)
		for i := 0; i < m.NumOwned; i++ {
			for d := 0; d < ndof; d++ {
				v[i*ndof+d] = float64(m.GlobalID[i]*10 + int64(d))
			}
		}
		m.GhostRead(v, ndof)
		for i := 0; i < m.NumLocal; i++ {
			for d := 0; d < ndof; d++ {
				want := float64(m.GlobalID[i]*10 + int64(d))
				if v[i*ndof+d] != want {
					panic(fmt.Sprintf("ndof ghost read: node %d dof %d: %v want %v", i, d, v[i*ndof+d], want))
				}
			}
		}
	})
}

func TestDonorsAreNeverHanging(t *testing.T) {
	// Under full corner 2:1 balance, every donor of a hanging corner must
	// itself be a global (non-hanging) vertex. Verify globally.
	for _, dim := range []int{2, 3} {
		par.Run(2, func(c *par.Comm) {
			r := rand.New(rand.NewSource(11))
			tr := octree.Build(dim, func(o sfc.Octant) bool {
				return int(o.Level) < 2 || (int(o.Level) < 5 && r.Float64() < 0.3)
			}, 5, nil).Balance21(nil)
			m := New(c, dim, scatterLeaves(tr, c.Rank(), 2))
			// All nodes in m.Keys are non-hanging by construction (donors
			// or regular corners were classified); classification panics
			// internally on inconsistent lattices, so reaching here with a
			// consistent global ID set is the assertion.
			ids := par.Allgatherv(c, m.GlobalID[:m.NumOwned])
			if c.Rank() == 0 && int64(len(ids)) != m.NumGlobal {
				panic("owned counts inconsistent")
			}
		})
	}
}
