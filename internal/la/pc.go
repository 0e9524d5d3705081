package la

// PC is a preconditioner: z = M^{-1} r over the owned segment.
//
// Besides the pointwise/blockwise PCs in this package, internal/mg provides
// PCGMG, a geometric multigrid V-cycle over the octree hierarchy that
// plugs in through this same interface (it lives outside la because it
// depends on the mesh and assembly layers).
type PC interface {
	Apply(r, z []float64)
}

// PCNone is the identity preconditioner.
type PCNone struct{}

// Apply copies r to z.
func (PCNone) Apply(r, z []float64) { copy(z, r) }

// PCJacobi scales by the inverse of the scalar diagonal (PETSc "jacobi",
// used for the VU mass solves in Table II).
type PCJacobi struct {
	m   *BSRMat
	inv []float64
}

// NewPCJacobi extracts the scalar diagonal of m.
func NewPCJacobi(m *BSRMat) *PCJacobi {
	p := &PCJacobi{m: m, inv: make([]float64, m.Rows())}
	p.Refresh()
	return p
}

// Refresh re-extracts the inverse diagonal from the matrix values in
// place, allocation-free.
func (p *PCJacobi) Refresh() {
	m := p.m
	bs := m.Bs
	bs2 := bs * bs
	for rn := 0; rn < m.NRowNodes; rn++ {
		for d := 0; d < bs; d++ {
			p.inv[rn*bs+d] = 1
		}
		for j := m.sp.Indptr[rn]; j < m.sp.Indptr[rn+1]; j++ {
			if int(m.sp.Cols[j]) != rn {
				continue
			}
			blk := m.vals[int(j)*bs2 : int(j+1)*bs2]
			for d := 0; d < bs; d++ {
				if v := blk[d*bs+d]; v != 0 {
					p.inv[rn*bs+d] = 1 / v
				}
			}
		}
	}
}

// Apply implements PC.
func (p *PCJacobi) Apply(r, z []float64) {
	for i, v := range p.inv {
		z[i] = v * r[i]
	}
}
