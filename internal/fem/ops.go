package fem

// Elemental operators computed with explicit Gauss-point loops — the
// formulation the baseline and stage-1 assembly paths use. All matrices
// are NPE x NPE row-major scalar blocks for an element of physical side h.

// Mass accumulates the consistent mass matrix: out += ∫ N_a N_b dV.
func (r *Ref) Mass(h float64, scale float64, out []float64) {
	vol := pow(h, r.Dim)
	for g := 0; g < r.NG; g++ {
		w := r.W[g] * vol * scale
		ng := r.N[g*r.NPE : (g+1)*r.NPE]
		for a := 0; a < r.NPE; a++ {
			wa := w * ng[a]
			for b := 0; b < r.NPE; b++ {
				out[a*r.NPE+b] += wa * ng[b]
			}
		}
	}
}

// MassStiffness writes the unit-coefficient mass and stiffness blocks of
// an element of side h by scaling the unit-cell blocks (M1 by h^d, K1 by
// h^(d-2)): on an octree mesh they depend on nothing but h, so a caller
// inside a nonlinear loop pays 2 NPE² multiplies, not two quadrature sweeps.
func (r *Ref) MassStiffness(h float64, me, ke []float64) {
	vol, f := pow(h, r.Dim), pow(h, r.Dim-2)
	for i, m := range r.M1 {
		me[i] = vol * m
		ke[i] = f * r.K1[i]
	}
}

// WeightedMass accumulates ∫ c(x) N_a N_b dV with c given at corners.
func (r *Ref) WeightedMass(h float64, coef []float64, scale float64, out []float64) {
	vol := pow(h, r.Dim)
	for g := 0; g < r.NG; g++ {
		w := r.W[g] * vol * scale * r.AtGauss(g, coef)
		ng := r.N[g*r.NPE : (g+1)*r.NPE]
		for a := 0; a < r.NPE; a++ {
			wa := w * ng[a]
			for b := 0; b < r.NPE; b++ {
				out[a*r.NPE+b] += wa * ng[b]
			}
		}
	}
}

// Stiffness accumulates ∫ ∇N_a · ∇N_b dV.
func (r *Ref) Stiffness(h float64, scale float64, out []float64) {
	// Gradients carry 1/h each; volume h^d: net h^(d-2).
	r.WeightedStiffness(h, nil, scale, out)
}

// WeightedStiffness accumulates ∫ c(x) ∇N_a · ∇N_b dV with c at corners
// (nil: c = 1). The reference gradient products come from GG.
func (r *Ref) WeightedStiffness(h float64, coef []float64, scale float64, out []float64) {
	f := pow(h, r.Dim-2) * scale
	n2 := r.NPE * r.NPE
	for g := 0; g < r.NG; g++ {
		w := r.W[g] * f
		if coef != nil {
			w *= r.AtGauss(g, coef)
		}
		for i, s := range r.GG[g*n2 : (g+1)*n2] {
			out[i] += w * s
		}
	}
}

// Convection accumulates ∫ N_a (v·∇N_b) dV with velocity components given
// at corners, vel[c*Dim+d].
func (r *Ref) Convection(h float64, vel []float64, scale float64, out []float64) {
	f := pow(h, r.Dim-1) * scale // one gradient: h^d * (1/h)
	var vg [3]float64
	var vdn [8]float64
	for g := 0; g < r.NG; g++ {
		for d := 0; d < r.Dim; d++ {
			var s float64
			for a := 0; a < r.NPE; a++ {
				s += r.N[g*r.NPE+a] * vel[a*r.Dim+d]
			}
			vg[d] = s
		}
		// v·∇N_b at this Gauss point, the same for every row a.
		for b := 0; b < r.NPE; b++ {
			db := r.DN[(g*r.NPE+b)*r.Dim : (g*r.NPE+b+1)*r.Dim]
			var s float64
			for d := 0; d < r.Dim; d++ {
				s += vg[d] * db[d]
			}
			vdn[b] = s
		}
		w := r.W[g] * f
		ng := r.N[g*r.NPE : (g+1)*r.NPE]
		for a := 0; a < r.NPE; a++ {
			wa := w * ng[a]
			for b := 0; b < r.NPE; b++ {
				out[a*r.NPE+b] += wa * vdn[b]
			}
		}
	}
}

// LoadVector accumulates ∫ f(x) N_a dV with f given at corners into
// out[a].
func (r *Ref) LoadVector(h float64, f []float64, scale float64, out []float64) {
	vol := pow(h, r.Dim) * scale
	for g := 0; g < r.NG; g++ {
		w := r.W[g] * vol * r.AtGauss(g, f)
		for a := 0; a < r.NPE; a++ {
			out[a] += w * r.N[g*r.NPE+a]
		}
	}
}
