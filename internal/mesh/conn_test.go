package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// oracleCorner classifies grid point p against the whole forest by brute
// force: p hangs when some leaf whose closed box holds p does not have it
// as a corner; its donors are the corners of the coarsest such leaf E that
// span p's position on E (the first dimension in which p lies inside E
// varying fastest), each of weight 1/donors. A conforming p is its own
// donor.
func oracleCorner(dim int, leaves []sfc.Octant, p NodeKey) []NodeKey {
	at := [3]uint32{p.X, p.Y, p.Z}
	var coarse *sfc.Octant
	for i := range leaves {
		l := &leaves[i]
		lo, s := [3]uint32{l.X, l.Y, l.Z}, l.Side()
		in, inside := true, false
		for d := 0; d < dim; d++ {
			in = in && lo[d] <= at[d] && at[d] <= lo[d]+s
			inside = inside || lo[d] < at[d] && at[d] < lo[d]+s
		}
		if in && inside && (coarse == nil || l.Level < coarse.Level) {
			coarse = l
		}
	}
	if coarse == nil {
		return []NodeKey{p}
	}
	lo, s := [3]uint32{coarse.X, coarse.Y, coarse.Z}, coarse.Side()
	var interior []int
	for d := 0; d < dim; d++ {
		if lo[d] < at[d] && at[d] < lo[d]+s {
			interior = append(interior, d)
		}
	}
	var donors []NodeKey
	for b := 0; b < 1<<len(interior); b++ {
		q := at
		for bi, d := range interior {
			q[d] = lo[d] + s*uint32(b>>bi&1)
		}
		donors = append(donors, NodeKey{q[0], q[1], q[2]})
	}
	return donors
}

// checkConn compares every element corner of m with the oracle on the
// global forest and the connectivity's storage with its contract: one
// int32 per corner, the shared weight 1 for a conforming corner, and one
// Constraint per hanging corner, HangingCorners of them.
func checkConn(m *Mesh, global []sfc.Octant) error {
	cpe := m.CornersPerElem()
	if len(m.conn) != m.NumElems()*cpe || unsafe.Sizeof(m.conn[0]) != 4 {
		return fmt.Errorf("%d corner entries of %d bytes for %d elements", len(m.conn), unsafe.Sizeof(m.conn[0]), m.NumElems())
	}
	hanging := 0
	for e, o := range m.Elems {
		for c := 0; c < cpe; c++ {
			donors := oracleCorner(m.Dim, global, cornerKey(o, c))
			idx, w := m.Corner(e, c)
			if len(idx) != len(donors) || len(w) != len(donors) {
				return fmt.Errorf("element %d corner %d: %d donors, %d weights; oracle %d", e, c, len(idx), len(w), len(donors))
			}
			if len(donors) == 1 && &w[0] != &unitWeight[0] {
				return fmt.Errorf("element %d corner %d: conforming, with a weight of its own", e, c)
			}
			if len(donors) > 1 {
				hanging++
			}
			for k, key := range donors {
				want, ok := m.NodeIndex(key)
				if !ok || idx[k] != int32(want) || w[k] != 1/float64(len(donors)) {
					return fmt.Errorf("element %d corner %d donor %d: node %d weight %v; oracle %v (local %d, %v) weight %v",
						e, c, k, idx[k], w[k], key, want, ok, 1/float64(len(donors)))
				}
			}
		}
	}
	if hanging != len(m.hang) || hanging != m.HangingCorners {
		return fmt.Errorf("%d hanging corners, %d Constraint records, HangingCorners %d", hanging, len(m.hang), m.HangingCorners)
	}
	return nil
}

// checkGatherScatter compares GatherElem and ScatterAddElem, which read
// the connectivity table directly, bit for bit with the sums over
// Corner's donors and weights, for 1 and 2 dofs per node, on a vector
// holding −0 at every third entry: the sum over one unit-weight donor is
// 0 + 1·(−0) = +0, and the direct loops must give the same.
func checkGatherScatter(m *Mesh) error {
	cpe := m.CornersPerElem()
	for _, ndof := range []int{1, 2} {
		v, got, want := m.NewVec(ndof), m.NewVec(ndof), m.NewVec(ndof)
		for i := range v {
			v[i] = math.Sin(float64(i))
			if i%3 == 0 {
				v[i] = math.Copysign(0, -1)
			}
		}
		ge, we := make([]float64, cpe*ndof), make([]float64, cpe*ndof)
		for e := range m.Elems {
			m.GatherElem(e, v, ndof, ge)
			for c := 0; c < cpe; c++ {
				idx, w := m.Corner(e, c)
				for d := 0; d < ndof; d++ {
					var s float64
					for k, i := range idx {
						s += w[k] * v[int(i)*ndof+d]
					}
					we[c*ndof+d] = s
				}
			}
			for i := range ge {
				if math.Float64bits(ge[i]) != math.Float64bits(we[i]) {
					return fmt.Errorf("ndof %d element %d: GatherElem entry %d is %v, the sum over Corner %v", ndof, e, i, ge[i], we[i])
				}
			}
			m.ScatterAddElem(e, ge, ndof, got)
			for c := 0; c < cpe; c++ {
				idx, w := m.Corner(e, c)
				for d := 0; d < ndof; d++ {
					for k, i := range idx {
						want[int(i)*ndof+d] += w[k] * ge[c*ndof+d]
					}
				}
			}
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("ndof %d: ScatterAddElem entry %d is %v, the sum over Corner %v", ndof, i, got[i], want[i])
			}
		}
	}
	return nil
}

// TestCompactConnMatchesOracle: on graded 2D and 3D meshes at 1, 2 and 4
// ranks, the connectivity that New builds, that Patch builds over a
// perturbed forest, that PatchMigrated builds over a moved partition, and
// that of the migrated view PatchMigrated returns, hold for every corner
// the donors and weights the brute-force oracle classifies, in 4 bytes
// per corner plus one Constraint per hanging corner; GatherElem and
// ScatterAddElem on each make the sums over Corner bit for bit.
func TestCompactConnMatchesOracle(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, p := range []int{1, 2, 4} {
			par.Run(p, func(c *par.Comm) {
				what := fmt.Sprintf("dim=%d p=%d rank=%d", dim, p, c.Rank())
				fine := 6 - dim
				base := buildGlobal(dim, 2, fine, 0.3, 0.6, 0.4, 0.3)
				must := func(kind string, m *Mesh, global []sfc.Octant) {
					if m.GlobalSum(float64(m.HangingCorners)) == 0 {
						panic(fmt.Sprintf("%s %s: no hanging corners", what, kind))
					}
					if err := checkConn(m, global); err != nil {
						panic(fmt.Sprintf("%s %s: %v", what, kind, err))
					}
					if err := checkGatherScatter(m); err != nil {
						panic(fmt.Sprintf("%s %s: %v", what, kind, err))
					}
				}
				oldLocal := scatterLeaves(base, c.Rank(), p)
				old := New(c, dim, oldLocal)
				must("New", old, base.Leaves)

				r := rand.New(rand.NewSource(int64(dim*10 + p)))
				pert := protectedPerturb(r, base, p, 8)
				bal := octree.Balance21Distributed(c, dim, ownChunk(pert.Leaves, octree.GatherSplitters(c, oldLocal), c.Rank()), nil)
				patched, _ := Patch(c, dim, bal, old, octree.AddedLeaves(oldLocal, bal))
				if patched == nil {
					panic(what + ": Patch fell back (splitters moved)")
				}
				balGlobal := par.Allgatherv(c, bal)
				must("Patch", patched, balGlobal)

				next := protectedPerturb(r, &octree.Tree{Dim: dim, Leaves: balGlobal}, p, 0).Balance21(nil)
				migrated, view, _ := PatchMigrated(patched, shiftedChunk(next.Leaves, c.Rank(), p, 5))
				must("PatchMigrated", migrated, next.Leaves)
				must("migrated view", view, balGlobal)
			})
		}
	}
}
