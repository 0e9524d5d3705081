package la

import "sync"

// Sparsity is the frozen index structure of a block-CSR matrix: row
// pointers and sorted column indices, with no values. It is immutable
// after construction, so every operator assembled on the same mesh with
// the same node pattern can share one Sparsity, whatever its block size —
// the PETSc analogue is a MatDuplicate(MAT_SHARE_NONZERO_PATTERN) pattern
// reused across operators and time steps. What depends on the pattern
// alone is derived from it once and cached: the interior/boundary row
// split of the overlapped SpMV and the symbolic ILU(0) of every
// block-Jacobi factor on it.
//
// Slots are positions into the column array: the Bs x Bs value block of
// the j-th stored entry lives at vals[j*Bs*Bs : (j+1)*Bs*Bs]. Assembly
// plans precompute slots once and then write values with no map lookup
// or search on the hot path.
type Sparsity struct {
	NRows  int // block rows
	Indptr []int32
	Cols   []int32

	// Interior/boundary row split (lazily derived once; see RowSplit).
	splitOnce sync.Once
	interior  []int32
	boundary  []int32

	// The ILU(0) symbolic factorization of the owned pattern (lazily
	// derived once; see iluIndex).
	iluOnce sync.Once
	ilu     *iluIndex
}

// RowSplit partitions the block rows by whether they touch a ghost
// column (one with index >= NRows, the owned block-column count): the
// returned interior rows read only owned entries of x, so their SpMV can
// run while the ghost exchange is still in flight; the boundary rows must
// wait for it. Derived once from the frozen pattern and cached — the
// structural basis of the overlapped BSRMat.Apply.
func (s *Sparsity) RowSplit() (interior, boundary []int32) {
	s.splitOnce.Do(func() {
		nInterior := 0
		for r := 0; r < s.NRows; r++ {
			if s.rowIsInterior(r) {
				nInterior++
			}
		}
		s.interior = make([]int32, 0, nInterior)
		s.boundary = make([]int32, 0, s.NRows-nInterior)
		for r := 0; r < s.NRows; r++ {
			if s.rowIsInterior(r) {
				s.interior = append(s.interior, int32(r))
			} else {
				s.boundary = append(s.boundary, int32(r))
			}
		}
	})
	return s.interior, s.boundary
}

// iluIndex returns the symbolic ILU(0) of the owned × owned pattern,
// derived once from the frozen pattern and cached like RowSplit: every
// block-Jacobi factor on this Sparsity, whatever its block size or
// component count, shares it.
func (s *Sparsity) iluIndex() *iluIndex {
	s.iluOnce.Do(func() { s.ilu = newILUIndex(s.ownedPattern()) })
	return s.ilu
}

func (s *Sparsity) rowIsInterior(r int) bool {
	for j := s.Indptr[r]; j < s.Indptr[r+1]; j++ {
		if int(s.Cols[j]) >= s.NRows {
			return false
		}
	}
	return true
}

// NNZ returns the stored (block) entry count.
func (s *Sparsity) NNZ() int { return len(s.Cols) }

// RowLen returns the stored entry count of block row r.
func (s *Sparsity) RowLen(r int) int { return int(s.Indptr[r+1] - s.Indptr[r]) }

// FindSlot returns the slot of entry (row, col) by binary search within
// the row, or -1 if the pattern does not contain it. This is the
// plan-construction path; steady-state assembly never calls it.
func (s *Sparsity) FindSlot(row, col int) int {
	lo, hi := s.Indptr[row], s.Indptr[row+1]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s.Cols[mid] < int32(col) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.Indptr[row+1] && s.Cols[lo] == int32(col) {
		return int(lo)
	}
	return -1
}
