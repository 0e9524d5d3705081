// Package chns implements the thermodynamically consistent Cahn–Hilliard
// Navier–Stokes solver of Saurabh et al. (IPDPS 2023, Sec. II-A): the
// two-block projection scheme with four sub-solves per block —
//
//	CH-solve: fully implicit nonlinear advective Cahn–Hilliard (Newton);
//	NS-solve: semi-implicit Crank–Nicolson linearized momentum;
//	PP-solve: variable-density pressure Poisson;
//	VU-solve: velocity correction, split into DIM single-DOF solves that
//	          reuse one assembled mass matrix (Sec. II-A).
//
// The Cahn number may vary per element ("local Cahn", Sec. II-B): the
// interface terms read the elemental Cn vector produced by the detect
// package.
package chns

import "math"

// Params are the non-dimensional groups of the CHNS system (Sec. II-A).
type Params struct {
	Re float64 // Reynolds u_r L_r / nu_r
	We float64 // Weber rho_r u_r^2 L_r / sigma
	Pe float64 // Peclet u_r L_r^2 / (m_r sigma)
	Cn float64 // Cahn eps / L_r (the global/background value)
	Fr float64 // Froude u_r^2 / (g L_r); <= 0 disables gravity

	// RhoMinus and EtaMinus are the -1 phase density and viscosity
	// relative to the +1 phase (rho+ = eta+ = 1).
	RhoMinus float64
	EtaMinus float64

	// Gravity direction (unit vector), typically {0,-1,0}.
	GravityDir [3]float64
}

// DefaultParams returns a well-conditioned two-phase setup (water-like /
// light-gas-like at moderate contrast).
func DefaultParams() Params {
	return Params{
		Re: 100, We: 10, Pe: 100, Cn: 0.01, Fr: -1,
		RhoMinus: 0.1, EtaMinus: 0.1,
		GravityDir: [3]float64{0, -1, 0},
	}
}

// Density returns the non-dimensional mixture density
// ((1-rho-)/2) φ + (1+rho-)/2, clipped to remain positive for out-of-bound
// φ excursions.
func (p Params) Density(phi float64) float64 {
	r := (1-p.RhoMinus)/2*clamp(phi) + (1+p.RhoMinus)/2
	if r < 1e-3 {
		r = 1e-3
	}
	return r
}

// Viscosity returns the non-dimensional mixture viscosity.
func (p Params) Viscosity(phi float64) float64 {
	e := (1-p.EtaMinus)/2*clamp(phi) + (1+p.EtaMinus)/2
	if e < 1e-4 {
		e = 1e-4
	}
	return e
}

// mobilityFloor keeps the degenerate mobility away from zero so the CH
// operator stays elliptic.
const mobilityFloor = 1e-2

// Mobility returns the degenerate mobility m(φ) = sqrt(1-φ²), clamped to
// |φ| ≤ 1 and floored at mobilityFloor.
func (p Params) Mobility(phi float64) float64 {
	c := clamp(phi)
	m := math.Sqrt(1 - c*c)
	if m < mobilityFloor {
		m = mobilityFloor
	}
	return m
}

// MobilityPrime returns m'(φ) = -φ/sqrt(1-φ²), the exact derivative of
// Mobility: 0 wherever Mobility is clamped or floored (kinks included).
func (p Params) MobilityPrime(phi float64) float64 {
	m := math.Sqrt(1 - phi*phi)
	if !(m > mobilityFloor) { // |φ| ≥ 1 gives 0 or NaN
		return 0
	}
	return -phi / m
}

// PsiPrime is the derivative of the double-well potential
// ψ(φ) = (1-φ²)²/4: ψ'(φ) = φ³ - φ.
func PsiPrime(phi float64) float64 { return phi*phi*phi - phi }

// PsiDoublePrime is ψ”(φ) = 3φ² - 1.
func PsiDoublePrime(phi float64) float64 { return 3*phi*phi - 1 }

func clamp(phi float64) float64 {
	if phi > 1 {
		return 1
	}
	if phi < -1 {
		return -1
	}
	return phi
}

// EquilibriumProfile returns the 1D equilibrium interface profile
// φ(d) = tanh(d / (sqrt(2) Cn)) for a signed distance d, used to
// initialize phase fields.
func EquilibriumProfile(d, cn float64) float64 {
	return math.Tanh(d / (math.Sqrt2 * cn))
}
