package fem

import (
	"fmt"
	"slices"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/par"
)

// coldAssemble is the independent reference the plan path is tested
// against: the map-based numeric assembler the package used before every
// assembly went through a plan. A serial element loop inserts node blocks
// into a map (mapMat) through the hanging constraints, buffers remote-row
// contributions per destination, exchanges them with NBX and applies them
// by node key in ascending source rank; freeze then builds the pattern
// from exactly the entries that were inserted, expanded to scalar rows for
// AIJ. It shares nothing with the plan path except the kernels, the mesh
// and the reference element. The zipped kernel runs for LayoutZipped, the
// node-major one otherwise. Collective.
func coldAssemble(a *Assembler, layout Layout, kern NodeMajorKernel, zkern ZippedKernel) *la.BSRMat {
	m := a.M
	zipped := layout == LayoutZipped
	c := &coldAsm{a: a, mat: mapMat{nd: a.Ndof, blocks: map[[2]int32][]float64{}}, off: newOffProcBuf()}
	npe := a.Ref.NPE
	nd := a.Ndof
	n := npe * nd
	ke := make([]float64, n*n)
	blk := make([]float64, nd*nd)
	blocks := make([][]float64, nd*nd)
	for i := range blocks {
		blocks[i] = make([]float64, npe*npe)
	}
	cpe := m.CornersPerElem()
	for e := 0; e < m.NumElems(); e++ {
		if zipped {
			for _, b := range blocks {
				for i := range b {
					b[i] = 0
				}
			}
			zkern(0, e, m.ElemSize(e), blocks)
		} else {
			for i := range ke {
				ke[i] = 0
			}
			kern(0, e, m.ElemSize(e), ke)
		}
		for ca := 0; ca < cpe; ca++ {
			ia, wa := m.Corner(e, ca)
			for cb := 0; cb < cpe; cb++ {
				ib, wb := m.Corner(e, cb)
				for di := 0; di < nd; di++ {
					for dj := 0; dj < nd; dj++ {
						if zipped {
							blk[di*nd+dj] = blocks[di*nd+dj][ca*npe+cb]
						} else {
							blk[di*nd+dj] = ke[(ca*nd+di)*n+cb*nd+dj]
						}
					}
				}
				c.distributeBlock(ia, wa, ib, wb, blk)
			}
		}
	}
	c.flushOffProc()
	return c.mat.freeze(m, layout == LayoutAIJ)
}

type coldAsm struct {
	a   *Assembler
	mat mapMat
	off *offProcBuf
}

// mapMat is the oracle's matrix under construction: nd×nd node blocks
// keyed by (row node, column node), each entry summed in insertion order.
type mapMat struct {
	nd     int
	blocks map[[2]int32][]float64
}

// add accumulates w·blk into block (rowNode, colNode).
func (mm mapMat) add(rowNode, colNode int, w float64, blk []float64) {
	key := [2]int32{int32(rowNode), int32(colNode)}
	b := mm.blocks[key]
	if b == nil {
		b = make([]float64, mm.nd*mm.nd)
		mm.blocks[key] = b
	}
	for k, v := range blk {
		b[k] += w * v
	}
}

// freeze sorts the inserted blocks into a node-block matrix, or for scalar
// into the AIJ matrix whose row node·nd+di holds dof row di of every block
// of its node row, nd scalar columns per block.
func (mm mapMat) freeze(m *mesh.Mesh, scalar bool) *la.BSRMat {
	keys := make([][2]int32, 0, len(mm.blocks))
	for k := range mm.blocks {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y [2]int32) int {
		if x[0] != y[0] {
			return int(x[0] - y[0])
		}
		return int(x[1] - y[1])
	})
	nd, nr := mm.nd, m.NumOwned
	rowLen := make([]int32, nr)
	for _, k := range keys {
		rowLen[k[0]]++
	}
	if !scalar {
		sp := &la.Sparsity{NRows: nr, Indptr: make([]int32, nr+1), Cols: make([]int32, len(keys))}
		for r := 0; r < nr; r++ {
			sp.Indptr[r+1] = sp.Indptr[r] + rowLen[r]
		}
		mat := la.NewBAIJFromSparsity(m, nd, nr, m.NumLocal, sp)
		for i, k := range keys {
			sp.Cols[i] = k[1]
			copy(mat.Vals()[i*nd*nd:], mm.blocks[k])
		}
		return mat
	}
	sp := &la.Sparsity{NRows: nr * nd, Indptr: make([]int32, nr*nd+1), Cols: make([]int32, len(keys)*nd*nd)}
	for r := 0; r < nr*nd; r++ {
		sp.Indptr[r+1] = sp.Indptr[r] + rowLen[r/nd]*int32(nd)
	}
	mat := la.NewAIJFromSparsity(m, nd, nr, m.NumLocal, sp)
	k0 := 0 // the row node's first block
	for i, k := range keys {
		if i > 0 && k[0] != keys[i-1][0] {
			k0 = i
		}
		for di := 0; di < nd; di++ {
			base := int(sp.Indptr[int(k[0])*nd+di]) + (i-k0)*nd
			for dj := 0; dj < nd; dj++ {
				sp.Cols[base+dj] = k[1]*int32(nd) + int32(dj)
				mat.Vals()[base+dj] = mm.blocks[k][di*nd+dj]
			}
		}
	}
	return mat
}

// distributeBlock adds blk (ndof x ndof) at every donor pair of two
// element corners (donors ia, ib with weights wa, wb), weighted, routing
// remotely-owned rows to the off-process buffer.
func (c *coldAsm) distributeBlock(ia []int32, wa []float64, ib []int32, wb []float64, blk []float64) {
	m := c.a.M
	nd := c.a.Ndof
	me := int32(m.Comm.Rank())
	for i, r := range ia {
		rowNode := int(r)
		wi := wa[i]
		for j, cn := range ib {
			colNode := int(cn)
			w := wi * wb[j]
			if m.Owner[rowNode] != me {
				ent := offProc{Row: m.Keys[rowNode], Col: m.Keys[colNode], V: make([]float64, nd*nd)}
				for k := range ent.V {
					ent.V[k] = w * blk[k]
				}
				c.off.add(int(m.Owner[rowNode]), ent)
				continue
			}
			c.mat.add(rowNode, colNode, w, blk)
		}
	}
}

// offProc is one remote-row contribution of the oracle's exchange, keyed
// by node keys so the owner resolves it against its own numbering.
type offProc struct {
	Row, Col mesh.NodeKey
	V        []float64 // ndof x ndof, weight folded in
}

// offProcBuf buffers remote-row contributions per destination rank.
type offProcBuf struct {
	dests []int
	bufs  [][]offProc
	pos   map[int]int // rank -> index into dests/bufs
}

func newOffProcBuf() *offProcBuf { return &offProcBuf{pos: map[int]int{}} }

func (b *offProcBuf) add(rank int, e offProc) {
	i, ok := b.pos[rank]
	if !ok {
		i = len(b.dests)
		b.pos[rank] = i
		b.dests = append(b.dests, rank)
		b.bufs = append(b.bufs, nil)
	}
	b.bufs[i] = append(b.bufs[i], e)
}

// flushOffProc exchanges buffered remote-row contributions and applies the
// received ones locally, in ascending source rank so the result does not
// depend on message arrival order. The trailing barrier keeps senders'
// buffers alive until every owner has read them: payloads travel by
// reference in the in-process runtime.
func (c *coldAsm) flushOffProc() {
	comm := c.a.M.Comm
	if comm.Size() == 1 {
		return
	}
	srcs, recvd := par.NBXExchange(comm, c.off.dests, c.off.bufs)
	for _, bi := range srcOrder(srcs) {
		for _, ent := range recvd[bi] {
			rowNode, ok := c.a.M.NodeIndex(ent.Row)
			if !ok {
				panic(fmt.Sprintf("fem: off-process row %v unknown on owner", ent.Row))
			}
			colNode, ok := c.a.M.NodeIndex(ent.Col)
			if !ok {
				panic(fmt.Sprintf("fem: off-process column %v unknown on rank %d", ent.Col, comm.Rank()))
			}
			c.mat.add(rowNode, colNode, 1, ent.V)
		}
	}
	comm.Barrier()
}

// mustMatchOracle checks a plan-path matrix against the cold oracle: the
// pattern must be identical and the values bitwise equal.
func mustMatchOracle(c *par.Comm, what string, want, got *la.BSRMat) {
	if err := sparsityEqual(got.Sparsity(), want.Sparsity()); err != nil {
		panic(fmt.Sprintf("%s rank=%d: pattern differs from the cold oracle: %v", what, c.Rank(), err))
	}
	wv, gv := want.Vals(), got.Vals()
	for i := range wv {
		if wv[i] != gv[i] {
			panic(fmt.Sprintf("%s rank=%d: vals[%d] = %v, cold oracle %v (diff %g)",
				what, c.Rank(), i, gv[i], wv[i], gv[i]-wv[i]))
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
