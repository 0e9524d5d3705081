package la

import (
	"fmt"
	"sort"
)

// cooMat is a matrix under construction the way a test writes one by
// hand: a map of bs×bs blocks keyed by (row node, column node), frozen
// into a BSRMat by Finalize. Production matrices never take this route:
// every one is made on a frozen Sparsity (NewBAIJFromSparsity,
// NewAIJFromSparsity) and written through its slots.
type cooMat struct {
	scatter                Scatter
	bs, rowNodes, colNodes int
	ndof                   int // > 0: scalar AIJ over ndof unknowns per node
	build                  map[[2]int32][]float64
}

// NewBAIJ returns an empty block matrix with the given block size.
func NewBAIJ(scatter Scatter, bs, ownedNodes, localNodes int) *cooMat {
	checkBs(bs)
	return &cooMat{scatter: scatter, bs: bs, rowNodes: ownedNodes, colNodes: localNodes,
		build: make(map[[2]int32][]float64)}
}

// NewAIJ returns an empty scalar CSR matrix over ndof unknowns per node:
// the node-blocked sparsity flattened to scalar rows and columns.
func NewAIJ(scatter Scatter, ndof, ownedNodes, localNodes int) *cooMat {
	return &cooMat{scatter: scatter, bs: 1, rowNodes: ownedNodes * ndof, colNodes: localNodes * ndof,
		ndof: ndof, build: make(map[[2]int32][]float64)}
}

// AddBlock accumulates a bs×bs dense block (row-major) at block position
// (rowNode, colNode).
func (c *cooMat) AddBlock(rowNode, colNode int, block []float64) {
	if rowNode < 0 || rowNode >= c.rowNodes {
		panic(fmt.Sprintf("la.AddBlock: row node %d out of owned range %d", rowNode, c.rowNodes))
	}
	b := c.block(rowNode, colNode)
	for i := range block {
		b[i] += block[i]
	}
}

// AddValue accumulates a scalar at (row, col) in scalar index space
// (node*bs + dof).
func (c *cooMat) AddValue(row, col int, v float64) {
	c.block(row/c.bs, col/c.bs)[(row%c.bs)*c.bs+col%c.bs] += v
}

func (c *cooMat) block(rowNode, colNode int) []float64 {
	key := [2]int32{int32(rowNode), int32(colNode)}
	b := c.build[key]
	if b == nil {
		b = make([]float64, c.bs*c.bs)
		c.build[key] = b
	}
	return b
}

// Finalize freezes the inserted blocks into a matrix on their sorted
// pattern.
func (c *cooMat) Finalize() *BSRMat {
	keys := make([][2]int32, 0, len(c.build))
	for k := range c.build {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	sp := &Sparsity{NRows: c.rowNodes, Indptr: make([]int32, c.rowNodes+1), Cols: make([]int32, len(keys))}
	for i, k := range keys {
		sp.Indptr[k[0]+1]++
		sp.Cols[i] = k[1]
	}
	for r := 0; r < c.rowNodes; r++ {
		sp.Indptr[r+1] += sp.Indptr[r]
	}
	var m *BSRMat
	if c.ndof > 0 {
		m = NewAIJFromSparsity(c.scatter, c.ndof, c.rowNodes/c.ndof, c.colNodes/c.ndof, sp)
	} else {
		m = NewBAIJFromSparsity(c.scatter, c.bs, c.rowNodes, c.colNodes, sp)
	}
	bs2 := c.bs * c.bs
	for i, k := range keys {
		copy(m.vals[i*bs2:(i+1)*bs2], c.build[k])
	}
	return m
}

// AddValue accumulates a scalar at (row, col) of a matrix's frozen
// pattern, panicking if the pattern does not hold it.
func (m *BSRMat) AddValue(row, col int, v float64) {
	slot := m.sp.FindSlot(row/m.Bs, col/m.Bs)
	if slot < 0 {
		panic(fmt.Sprintf("la: entry (%d,%d) not in the frozen sparsity", row, col))
	}
	m.vals[slot*m.Bs*m.Bs+(row%m.Bs)*m.Bs+col%m.Bs] += v
}
