package fem

import (
	"math"
	"math/rand"
	"testing"
)

// The reference operators below are the explicit Gauss-point loops as
// they stood before their loop-invariant parts were hoisted (the ∇N_a·∇N_b
// products into Ref.GG, v·∇N_b out of Convection's row loop), kept verbatim
// as oracles: the shipped loops must reproduce them bit for bit.

func refStiffness(r *Ref, h float64, scale float64, out []float64) {
	// Gradients carry 1/h each; volume h^d: net h^(d-2).
	f := pow(h, r.Dim-2) * scale
	for g := 0; g < r.NG; g++ {
		w := r.W[g] * f
		for a := 0; a < r.NPE; a++ {
			da := r.DN[(g*r.NPE+a)*r.Dim : (g*r.NPE+a+1)*r.Dim]
			for b := 0; b < r.NPE; b++ {
				db := r.DN[(g*r.NPE+b)*r.Dim : (g*r.NPE+b+1)*r.Dim]
				var s float64
				for d := 0; d < r.Dim; d++ {
					s += da[d] * db[d]
				}
				out[a*r.NPE+b] += w * s
			}
		}
	}
}

func refWeightedStiffness(r *Ref, h float64, coef []float64, scale float64, out []float64) {
	f := pow(h, r.Dim-2) * scale
	for g := 0; g < r.NG; g++ {
		w := r.W[g] * f * r.AtGauss(g, coef)
		for a := 0; a < r.NPE; a++ {
			da := r.DN[(g*r.NPE+a)*r.Dim : (g*r.NPE+a+1)*r.Dim]
			for b := 0; b < r.NPE; b++ {
				db := r.DN[(g*r.NPE+b)*r.Dim : (g*r.NPE+b+1)*r.Dim]
				var s float64
				for d := 0; d < r.Dim; d++ {
					s += da[d] * db[d]
				}
				out[a*r.NPE+b] += w * s
			}
		}
	}
}

func refConvection(r *Ref, h float64, vel []float64, scale float64, out []float64) {
	f := pow(h, r.Dim-1) * scale // one gradient: h^d * (1/h)
	var vg [3]float64
	for g := 0; g < r.NG; g++ {
		for d := 0; d < r.Dim; d++ {
			var s float64
			for a := 0; a < r.NPE; a++ {
				s += r.N[g*r.NPE+a] * vel[a*r.Dim+d]
			}
			vg[d] = s
		}
		w := r.W[g] * f
		ng := r.N[g*r.NPE : (g+1)*r.NPE]
		for a := 0; a < r.NPE; a++ {
			wa := w * ng[a]
			for b := 0; b < r.NPE; b++ {
				db := r.DN[(g*r.NPE+b)*r.Dim : (g*r.NPE+b+1)*r.Dim]
				var s float64
				for d := 0; d < r.Dim; d++ {
					s += vg[d] * db[d]
				}
				out[a*r.NPE+b] += wa * s
			}
		}
	}
}

// TestExplicitOperatorsMatchReferenceBitwise pins Stiffness,
// WeightedStiffness and Convection to the loops they replaced, accumulating
// into a non-zero block as their callers do, in 2D and 3D.
func TestExplicitOperatorsMatchReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{2, 3} {
		r := NewRef(dim)
		for iter := 0; iter < 50; iter++ {
			h, scale := math.Ldexp(1, -rng.Intn(8))*(1+0.1*rng.Float64()), rng.NormFloat64()
			coef, vel := make([]float64, r.NPE), make([]float64, r.NPE*dim)
			for i := range coef {
				coef[i] = rng.NormFloat64()
			}
			for i := range vel {
				vel[i] = rng.NormFloat64()
			}
			seed := make([]float64, r.NPE*r.NPE)
			for i := range seed {
				seed[i] = rng.NormFloat64()
			}
			for name, ops := range map[string][2]func(out []float64){
				"Stiffness": {func(o []float64) { r.Stiffness(h, scale, o) }, func(o []float64) { refStiffness(r, h, scale, o) }},
				"WeightedStiffness": {func(o []float64) { r.WeightedStiffness(h, coef, scale, o) },
					func(o []float64) { refWeightedStiffness(r, h, coef, scale, o) }},
				"Convection": {func(o []float64) { r.Convection(h, vel, scale, o) }, func(o []float64) { refConvection(r, h, vel, scale, o) }},
			} {
				got, want := append([]float64(nil), seed...), append([]float64(nil), seed...)
				ops[0](got)
				ops[1](want)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("dim=%d %s entry %d: %v, reference %v", dim, name, i, got[i], want[i])
					}
				}
			}
		}
	}
}
