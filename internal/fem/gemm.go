package fem

import "proteus/internal/blas"

// Stage-2 elemental operators (Sec. III-A): every operator is expressed as
// a matrix-matrix product over quadrature matrices, L = Q1^T diag(w) Q2,
// evaluated with the blas DGEMM kernels instead of explicit Gauss loops.
// The outputs are contiguous NPE x NPE scalar blocks — the "zipped"
// layout — which the zipped assembly path scatters into block storage.

// GemmWork holds per-element scratch so GEMM-based kernels do not
// allocate. One GemmWork per goroutine.
type GemmWork struct {
	scaled []float64 // NG x NPE scaled copy of N or G_d
	vg     []float64 // NG x Dim field at Gauss points
	big    []float64 // (NG*Dim) x NPE scratch
}

// NewGemmWork allocates scratch for the reference element.
func NewGemmWork(r *Ref) *GemmWork {
	return &GemmWork{
		scaled: make([]float64, r.NG*r.NPE),
		vg:     make([]float64, r.NG*3),
		big:    make([]float64, r.NG*r.Dim*r.NPE),
	}
}

// CoefAtGauss interpolates a nodal coefficient to all Gauss points:
// out = N * nodal (one DGEMV).
func (r *Ref) CoefAtGauss(nodal []float64, out []float64) {
	blas.Dgemv(r.NG, r.NPE, 1, r.N, nodal, 0, out)
}

// MassGemm computes out = scale * N^T diag(w_g h^d c_g) N. coefG may be
// nil for a unit coefficient; otherwise it holds the coefficient at Gauss
// points.
func (r *Ref) MassGemm(w *GemmWork, h, scale float64, coefG []float64, out []float64) {
	vol := pow(h, r.Dim) * scale
	for g := 0; g < r.NG; g++ {
		f := r.W[g] * vol
		if coefG != nil {
			f *= coefG[g]
		}
		base := g * r.NPE
		for a := 0; a < r.NPE; a++ {
			w.scaled[base+a] = f * r.N[base+a]
		}
	}
	blas.DgemmTA(r.NPE, r.NPE, r.NG, 1, r.N, w.scaled, 0, out)
}

// StiffGemm computes out = scale * sum_d G_d^T diag(w_g h^{d-2} c_g) G_d
// with the per-dimension gradient matrices stacked into one
// (NG*Dim) x NPE product.
func (r *Ref) StiffGemm(w *GemmWork, h, scale float64, coefG []float64, out []float64) {
	f0 := pow(h, r.Dim-2) * scale
	nd := r.Dim
	need := nd * r.NG * r.NPE
	if cap(w.scaled) < need {
		w.scaled = make([]float64, need)
	}
	sc := w.scaled[:need]
	// big[(d*NG+g)*NPE+a] = DN[g,a,d]; sc is its row-scaled copy.
	for d := 0; d < nd; d++ {
		for g := 0; g < r.NG; g++ {
			f := r.W[g] * f0
			if coefG != nil {
				f *= coefG[g]
			}
			row := (d*r.NG + g) * r.NPE
			for a := 0; a < r.NPE; a++ {
				v := r.DN[(g*r.NPE+a)*nd+d]
				w.big[row+a] = v
				sc[row+a] = f * v
			}
		}
	}
	blas.DgemmTA(r.NPE, r.NPE, nd*r.NG, 1, w.big[:need], sc, 0, out)
}

// ConvGemm computes out = scale * N^T diag(w_g h^{d-1}) [sum_d v_d(g) G_d]
// with nodal velocity vel[a*Dim+d].
func (r *Ref) ConvGemm(w *GemmWork, h, scale float64, vel []float64, out []float64) {
	nd := r.Dim
	// Velocity at Gauss points: vg = N * vel (dof-major via Dim gemvs on
	// the zipped velocity — here we just stride).
	for d := 0; d < nd; d++ {
		for g := 0; g < r.NG; g++ {
			var s float64
			for a := 0; a < r.NPE; a++ {
				s += r.N[g*r.NPE+a] * vel[a*nd+d]
			}
			w.vg[g*nd+d] = s
		}
	}
	f0 := pow(h, r.Dim-1) * scale
	// scaled[g,a] = w_g f0 * sum_d v_d(g) DN[g,a,d]
	for g := 0; g < r.NG; g++ {
		f := r.W[g] * f0
		for a := 0; a < r.NPE; a++ {
			var s float64
			for d := 0; d < nd; d++ {
				s += w.vg[g*nd+d] * r.DN[(g*r.NPE+a)*nd+d]
			}
			w.scaled[g*r.NPE+a] = f * s
		}
	}
	blas.DgemmTA(r.NPE, r.NPE, r.NG, 1, r.N, w.scaled[:r.NG*r.NPE], 0, out)
}

// GradDotMassGemm computes out = scale * [sum_d diag(w_g h^{d-1} wG_d(g)) G_d]^T N,
// the GEMM form of GradDotMass (wG[g*Dim+d] at Gauss points).
func (r *Ref) GradDotMassGemm(w *GemmWork, h, scale float64, wG []float64, out []float64) {
	nd := r.Dim
	f0 := pow(h, nd-1) * scale
	for g := 0; g < r.NG; g++ {
		f := r.W[g] * f0
		for a := 0; a < r.NPE; a++ {
			var s float64
			for d := 0; d < nd; d++ {
				s += wG[g*nd+d] * r.DN[(g*r.NPE+a)*nd+d]
			}
			w.scaled[g*r.NPE+a] = f * s
		}
	}
	blas.DgemmTA(r.NPE, r.NPE, r.NG, 1, w.scaled[:r.NG*r.NPE], r.N, 0, out)
}

// UnzipMat scatters dof-pair-major blocks (blocks[di*ndof+dj] of npe x npe)
// into a node-major elemental matrix Ke of size (npe*ndof)^2 — the
// "unzip" of Fig. 3b.
func UnzipMat(ndof, npe int, blocks [][]float64, ke []float64) {
	n := npe * ndof
	for di := 0; di < ndof; di++ {
		for dj := 0; dj < ndof; dj++ {
			blk := blocks[di*ndof+dj]
			for a := 0; a < npe; a++ {
				row := (a*ndof + di) * n
				for b := 0; b < npe; b++ {
					ke[row+b*ndof+dj] = blk[a*npe+b]
				}
			}
		}
	}
}
