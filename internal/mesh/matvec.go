package mesh

// This file implements the elemental traversal underlying every MATVEC:
// gather element corner values through hanging-node constraints, apply a
// dense elemental kernel, and scatter the result back through the
// transposed constraints. Each MATVEC is a single pass over the local
// elements with one ghost read before and one combining ghost write after,
// exactly the structure whose scaling the paper reports in Fig. 6.

// GatherElem interpolates the ndof values at the 2^d corners of element e
// from the constrained local vector v into out (corner-major:
// out[c*ndof+d]). out must have CornersPerElem()*ndof entries.
//
// GatherElem and ScatterAddElem, the MATVEC's inner loops, read the
// connectivity table directly rather than through Corner, and make the
// sums a loop over Corner's donors would: 0 + 1·v at a conforming corner
// (1·v is v exactly; the 0 + turns −0 into +0 as it did).
func (m *Mesh) GatherElem(e int, v []float64, ndof int, out []float64) {
	cpe := m.CornersPerElem()
	for c, k := range m.conn[e*cpe : e*cpe+cpe] {
		if k >= 0 {
			for d := 0; d < ndof; d++ {
				out[c*ndof+d] = 0 + v[int(k)*ndof+d]
			}
			continue
		}
		h := &m.hang[^k]
		for d := 0; d < ndof; d++ {
			var s float64
			for j := 0; j < int(h.N); j++ {
				s += h.W[j] * v[int(h.Idx[j])*ndof+d]
			}
			out[c*ndof+d] = s
		}
	}
}

// ScatterAddElem adds elemental corner values into v through the
// transposed constraints: a hanging corner's contribution is distributed
// to its donors with the interpolation weights.
func (m *Mesh) ScatterAddElem(e int, vals []float64, ndof int, v []float64) {
	cpe := m.CornersPerElem()
	for c, k := range m.conn[e*cpe : e*cpe+cpe] {
		if k >= 0 {
			for d := 0; d < ndof; d++ {
				v[int(k)*ndof+d] += vals[c*ndof+d]
			}
			continue
		}
		h := &m.hang[^k]
		for d := 0; d < ndof; d++ {
			x := vals[c*ndof+d]
			for j := 0; j < int(h.N); j++ {
				v[int(h.Idx[j])*ndof+d] += h.W[j] * x
			}
		}
	}
}

// ScatterSetElem writes raw values to every node referenced by element
// e's constraints, combining with op (used by the erosion/dilation passes,
// which set rather than accumulate).
func (m *Mesh) ScatterSetElem(e int, val float64, ndof int, v []float64, op func(cur, in float64) float64) {
	cpe := m.CornersPerElem()
	for c := 0; c < cpe; c++ {
		idx, _ := m.Corner(e, c)
		for _, i := range idx {
			for d := 0; d < ndof; d++ {
				o := int(i)*ndof + d
				v[o] = op(v[o], val)
			}
		}
	}
}

// ElemKernel computes out = A_e * in for one element: in and out are
// corner-major ndof-interleaved buffers; h is the element's physical side
// length.
type ElemKernel func(e int, h float64, in, out []float64)

// MatVec applies the globally assembled operator whose elemental blocks
// are given by kernel: out = A * in. in and out have NumLocal*ndof
// entries; only the owned segment of out is meaningful afterwards (ghost
// contributions are pushed to their owners). Collective.
func (m *Mesh) MatVec(in, out []float64, ndof int, kernel ElemKernel) {
	m.GhostRead(in, ndof)
	for i := range out {
		out[i] = 0
	}
	cpe := m.CornersPerElem()
	ein := make([]float64, cpe*ndof)
	eout := make([]float64, cpe*ndof)
	for e := 0; e < m.NumElems(); e++ {
		m.GatherElem(e, in, ndof, ein)
		kernel(e, m.ElemSize(e), ein, eout)
		m.ScatterAddElem(e, eout, ndof, out)
	}
	m.GhostWrite(out, ndof, Add, 0)
}
