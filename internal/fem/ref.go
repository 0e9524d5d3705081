// Package fem provides linear continuous-Galerkin reference elements
// (quad4/hex8), elemental operators (mass, stiffness, convection, and
// variable-coefficient variants), and the three matrix/vector assembly
// paths compared in Table I of Saurabh et al. (IPDPS 2023):
//
//   - baseline: scalar AIJ assembly with strided per-DOF writes;
//   - stage 1:  blocked BAIJ assembly;
//   - stage 2:  zip/unzip DOF reordering with every operator expressed as
//     DGEMM/DGEMV products over quadrature matrices (Sec. III-A).
package fem

import "fmt"

// Ref is a reference element: linear basis on [0,1]^d with full 2-point
// Gauss quadrature. Corner ordering matches mesh/sfc child ordering
// (bit 0 = +x, bit 1 = +y, bit 2 = +z).
type Ref struct {
	Dim int
	NPE int // nodes per element (2^d)
	NG  int // Gauss points (2^d)

	// N[g*NPE+a]: shape function a at Gauss point g.
	N []float64
	// DN[(g*NPE+a)*Dim+d]: reference derivative (unit cell) of a at g.
	DN []float64
	// W[g]: quadrature weight on the unit cell (sums to 1).
	W []float64
	// GP[g*Dim+d]: Gauss point coordinates on the unit cell.
	GP []float64
	// GG[(g*NPE+a)*NPE+b]: ∇N_a·∇N_b (reference derivatives) at g.
	GG []float64
	// M1, K1: unit-coefficient mass and stiffness blocks of the unit cell
	// (see MassStiffness).
	M1, K1 []float64
}

// gauss2 holds the 2-point Gauss abscissae on [0,1].
var gauss2 = [2]float64{0.5 - 0.28867513459481287, 0.5 + 0.28867513459481287}

// NewRef constructs the reference element for dim in {2,3}.
func NewRef(dim int) *Ref {
	if dim != 2 && dim != 3 {
		panic(fmt.Sprintf("fem.NewRef: dim %d", dim))
	}
	npe := 1 << dim
	ng := 1 << dim
	r := &Ref{Dim: dim, NPE: npe, NG: ng,
		N:  make([]float64, ng*npe),
		DN: make([]float64, ng*npe*dim),
		W:  make([]float64, ng),
		GP: make([]float64, ng*dim),
	}
	for g := 0; g < ng; g++ {
		var x [3]float64
		for d := 0; d < dim; d++ {
			x[d] = gauss2[(g>>d)&1]
			r.GP[g*dim+d] = x[d]
		}
		// Each 1D 2-point Gauss weight on [0,1] is 1/2; product over dims.
		r.W[g] = pow(0.5, dim)
		for a := 0; a < npe; a++ {
			val := 1.0
			for d := 0; d < dim; d++ {
				if (a>>d)&1 == 1 {
					val *= x[d]
				} else {
					val *= 1 - x[d]
				}
			}
			r.N[g*npe+a] = val
			for d := 0; d < dim; d++ {
				dv := 1.0
				for e := 0; e < dim; e++ {
					if e == d {
						if (a>>e)&1 == 1 {
							dv *= 1
						} else {
							dv *= -1
						}
					} else {
						if (a>>e)&1 == 1 {
							dv *= x[e]
						} else {
							dv *= 1 - x[e]
						}
					}
				}
				r.DN[(g*npe+a)*dim+d] = dv
			}
		}
	}
	r.GG = make([]float64, ng*npe*npe)
	for ga := 0; ga < ng*npe; ga++ { // row (g,a) of DN
		for b := 0; b < npe; b++ {
			gb := ga/npe*npe + b
			for d := 0; d < dim; d++ {
				r.GG[ga*npe+b] += r.DN[ga*dim+d] * r.DN[gb*dim+d]
			}
		}
	}
	r.M1, r.K1 = make([]float64, npe*npe), make([]float64, npe*npe)
	r.Mass(1, 1, r.M1)
	r.Stiffness(1, 1, r.K1)
	return r
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}

// AtGauss interpolates a nodal field to Gauss point g.
func (r *Ref) AtGauss(g int, nodal []float64) float64 {
	var s float64
	base := g * r.NPE
	for a := 0; a < r.NPE; a++ {
		s += r.N[base+a] * nodal[a]
	}
	return s
}

// GradAtGauss returns component d of the physical gradient of a nodal
// field at Gauss point g for an element of side h.
func (r *Ref) GradAtGauss(g, d int, h float64, nodal []float64) float64 {
	var s float64
	for a := 0; a < r.NPE; a++ {
		s += r.DN[(g*r.NPE+a)*r.Dim+d] * nodal[a]
	}
	return s / h
}
