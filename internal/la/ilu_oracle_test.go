package la

// The ILU(0) of the scalar expansion: every entry of every owned block of a
// matrix, as scalar CSR rows r·Bs+bi, factored and swept by the bs = 1
// kernels (factor1, apply1). It is the block-Jacobi ILU(0) this package
// shipped before the node-block kernels, kept here as their oracle.

// LocalCSR extracts the owned×owned scalar submatrix (dropping ghost
// columns) in CSR form: every entry of every owned block, so row r·Bs+bi
// stands for scalar row bi of block row r. Within a row the entries come
// one group per owned block, in block-column order, so the columns ascend.
func (m *BSRMat) LocalCSR() (indptr []int32, cols []int32, vals []float64, n int) {
	bs := m.Bs
	n = m.NRowNodes * bs
	indptr = make([]int32, n+1)
	// Count then fill.
	for r := 0; r < m.NRowNodes; r++ {
		for j := m.sp.Indptr[r]; j < m.sp.Indptr[r+1]; j++ {
			if int(m.sp.Cols[j]) < m.NRowNodes {
				for bi := 0; bi < bs; bi++ {
					indptr[r*bs+bi+1] += int32(bs)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		indptr[i+1] += indptr[i]
	}
	cols = make([]int32, indptr[n])
	vals = make([]float64, indptr[n])
	fill := make([]int32, n)
	copy(fill, indptr[:n])
	for r := 0; r < m.NRowNodes; r++ {
		for j := m.sp.Indptr[r]; j < m.sp.Indptr[r+1]; j++ {
			cn := int(m.sp.Cols[j])
			if cn >= m.NRowNodes {
				continue
			}
			for bi := 0; bi < bs; bi++ {
				row := r*bs + bi
				for bj := 0; bj < bs; bj++ {
					cols[fill[row]] = int32(cn*bs + bj)
					fill[row]++
				}
			}
		}
	}
	m.localCSRValuesInto(indptr, vals)
	return indptr, cols, vals, n
}

// localCSRValuesInto refills vals (from a previous LocalCSR of this
// matrix, whose pattern is unchanged) with the current owned×owned
// values, allocation-free, in LocalCSR's entry order.
func (m *BSRMat) localCSRValuesInto(indptr []int32, vals []float64) {
	bs := m.Bs
	bs2 := bs * bs
	for r := 0; r < m.NRowNodes; r++ {
		nOwned := 0
		for j := m.sp.Indptr[r]; j < m.sp.Indptr[r+1]; j++ {
			if int(m.sp.Cols[j]) >= m.NRowNodes {
				continue
			}
			blk := m.vals[int(j)*bs2 : int(j+1)*bs2]
			for bi := 0; bi < bs; bi++ {
				base := int(indptr[r*bs+bi]) + nOwned*bs
				copy(vals[base:base+bs], blk[bi*bs:(bi+1)*bs])
			}
			nOwned++
		}
	}
}

// pointLayout is the iluLayout of the oracle: the scalar expansion, one
// scalar entry per "block".
func pointLayout(m *BSRMat) (bs int, ix *iluIndex, refill func(lu []float64)) {
	indptr, cols, _, _ := m.LocalCSR()
	return 1, newILUIndex(indptr, cols), func(lu []float64) { m.localCSRValuesInto(indptr, lu) }
}

// newPointILU0 is NewPCBJacobiILU0 on the scalar expansion of m: the
// oracle. On a bs = 1 matrix it is NewPCBJacobiILU0 itself.
func newPointILU0(m *BSRMat) *PCBJacobiILU0 {
	defer func(l func(*BSRMat) (int, *iluIndex, func([]float64))) { iluLayout = l }(iluLayout)
	iluLayout = pointLayout
	return NewPCBJacobiILU0(m)
}
