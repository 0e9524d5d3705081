package fem

import (
	"fmt"
	"math"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/par"
)

// coldAssemble is the independent reference the plan path is tested
// against: the map-based numeric assembler the package used before every
// assembly went through a plan. A serial element loop inserts into an
// unfinalized la matrix (AddValue for AIJ, AddBlock otherwise) through
// the hanging constraints, buffers remote-row contributions per
// destination, exchanges them with NBX and applies them by node key in
// ascending source rank; Finalize then freezes the pattern from exactly
// the entries that were inserted. It shares nothing with the plan path
// except the kernels, the mesh and the reference element. The zipped
// kernel runs for LayoutZipped, the node-major one otherwise. Collective.
func coldAssemble(a *Assembler, layout Layout, kern NodeMajorKernel, zkern ZippedKernel) *la.BSRMat {
	m := a.M
	zipped := layout == LayoutZipped
	var mat *la.BSRMat
	if layout == LayoutAIJ {
		mat = la.NewAIJ(m, a.Ndof, m.NumOwned, m.NumLocal)
	} else {
		mat = la.NewBAIJ(m, a.Ndof, m.NumOwned, m.NumLocal)
	}
	c := &coldAsm{a: a, mat: mat, layout: layout, off: newOffProcBuf()}
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
			conA := &m.Conn[e*cpe+ca]
			for cb := 0; cb < cpe; cb++ {
				conB := &m.Conn[e*cpe+cb]
				for di := 0; di < nd; di++ {
					for dj := 0; dj < nd; dj++ {
						if zipped {
							blk[di*nd+dj] = blocks[di*nd+dj][ca*npe+cb]
						} else {
							blk[di*nd+dj] = ke[(ca*nd+di)*n+cb*nd+dj]
						}
					}
				}
				c.distributeBlock(conA, conB, blk)
			}
		}
	}
	c.flushOffProc()
	mat.Finalize()
	return mat
}

type coldAsm struct {
	a      *Assembler
	mat    *la.BSRMat
	layout Layout
	off    *offProcBuf
}

// distributeBlock adds blk (ndof x ndof) at every donor pair of the two
// constraints, weighted, routing remotely-owned rows to the off-process
// buffer.
func (c *coldAsm) distributeBlock(conA, conB *mesh.Constraint, blk []float64) {
	m := c.a.M
	nd := c.a.Ndof
	me := int32(m.Comm.Rank())
	for i := 0; i < int(conA.N); i++ {
		rowNode := int(conA.Idx[i])
		wi := conA.W[i]
		for j := 0; j < int(conB.N); j++ {
			colNode := int(conB.Idx[j])
			w := wi * conB.W[j]
			if m.Owner[rowNode] != me {
				ent := offProc{Row: m.Keys[rowNode], Col: m.Keys[colNode], V: make([]float64, nd*nd)}
				for k := range ent.V {
					ent.V[k] = w * blk[k]
				}
				c.off.add(int(m.Owner[rowNode]), ent)
				continue
			}
			switch c.layout {
			case LayoutAIJ:
				// Strided scalar writes, the baseline pattern of Fig. 3.
				for di := 0; di < nd; di++ {
					for dj := 0; dj < nd; dj++ {
						c.mat.AddValue(rowNode*nd+di, colNode*nd+dj, w*blk[di*nd+dj])
					}
				}
			default:
				if w == 1 {
					c.mat.AddBlock(rowNode, colNode, blk)
				} else {
					tmp := make([]float64, nd*nd)
					for k := range tmp {
						tmp[k] = w * blk[k]
					}
					c.mat.AddBlock(rowNode, colNode, tmp)
				}
			}
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
	nd := c.a.Ndof
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
			if c.layout == LayoutAIJ {
				for di := 0; di < nd; di++ {
					for dj := 0; dj < nd; dj++ {
						c.mat.AddValue(rowNode*nd+di, colNode*nd+dj, ent.V[di*nd+dj])
					}
				}
			} else {
				c.mat.AddBlock(rowNode, colNode, ent.V)
			}
		}
	}
	comm.Barrier()
}

// mustMatchOracle checks a plan-path matrix against the cold oracle: the
// pattern must be identical, the values bitwise equal at one worker and
// within 1e-12 relative at more (shard merging reorders the additions).
func mustMatchOracle(c *par.Comm, what string, workers int, want, got *la.BSRMat) {
	if err := sparsityEqual(got.Sparsity(), want.Sparsity()); err != nil {
		panic(fmt.Sprintf("%s rank=%d: pattern differs from the cold oracle: %v", what, c.Rank(), err))
	}
	wv, gv := want.Vals(), got.Vals()
	for i := range wv {
		if workers == 1 {
			if wv[i] != gv[i] {
				panic(fmt.Sprintf("%s rank=%d: vals[%d] = %v, cold oracle %v (diff %g)",
					what, c.Rank(), i, gv[i], wv[i], gv[i]-wv[i]))
			}
		} else if math.Abs(wv[i]-gv[i]) > 1e-12*math.Max(1, math.Abs(wv[i])) {
			panic(fmt.Sprintf("%s rank=%d: vals[%d] = %v, cold oracle %v beyond roundoff",
				what, c.Rank(), i, gv[i], wv[i]))
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
