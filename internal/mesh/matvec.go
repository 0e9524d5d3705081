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
func (m *Mesh) GatherElem(e int, v []float64, ndof int, out []float64) {
	cpe := m.CornersPerElem()
	for c := 0; c < cpe; c++ {
		con := &m.Conn[e*cpe+c]
		for d := 0; d < ndof; d++ {
			var s float64
			for k := 0; k < int(con.N); k++ {
				s += con.W[k] * v[int(con.Idx[k])*ndof+d]
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
	for c := 0; c < cpe; c++ {
		con := &m.Conn[e*cpe+c]
		for d := 0; d < ndof; d++ {
			x := vals[c*ndof+d]
			for k := 0; k < int(con.N); k++ {
				v[int(con.Idx[k])*ndof+d] += con.W[k] * x
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
		con := &m.Conn[e*cpe+c]
		for k := 0; k < int(con.N); k++ {
			for d := 0; d < ndof; d++ {
				o := int(con.Idx[k])*ndof + d
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
