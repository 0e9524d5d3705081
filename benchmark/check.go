package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"proteus/internal/core"
	"proteus/internal/fem"
)

// fingerprint is the physical state a run is checked by: the integrals of
// phi (conserved), of 1 - phi^2 (interface measure) and of the kinetic
// energy density, by lumped-mass quadrature on the benchmark's own
// assembler, plus the global element count and the step they were taken
// at.
type fingerprint struct {
	Step      int     `json:"step"`
	Elems     int64   `json:"elems"`
	Phi       float64 `json:"int_phi"`
	Interface float64 `json:"int_one_minus_phi2"`
	Kinetic   float64 `json:"int_kinetic"`
}

// takeFingerprint evaluates the integrals on the current state. The
// second result reports whether every owned field value is finite.
// Collective; every rank receives the same values.
func takeFingerprint(s *core.Simulation) (fingerprint, bool) {
	m, sol := s.Mesh, s.Solver
	asm := fem.NewAssembler(m, 1)
	ones := make([]float64, asm.Ref.NPE)
	for i := range ones {
		ones[i] = 1
	}
	lump := m.NewVec(1)
	asm.AssembleVector(lump, func(e int, h float64, fe []float64) {
		asm.Ref.LoadVector(h, ones, 1, fe)
	})
	// sums: phi, 1-phi^2, kinetic energy, non-finite values.
	sums := make([]float64, 4)
	dim := m.Dim
	for i := 0; i < m.NumOwned; i++ {
		phi := sol.PhiMu[2*i]
		var u2 float64
		for d := 0; d < dim; d++ {
			u := sol.Vel[i*dim+d]
			u2 += u * u
		}
		vals := [4]float64{phi, sol.PhiMu[2*i+1], u2, sol.P[i]}
		finite := true
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
		}
		if !finite {
			sums[3]++
			continue
		}
		sums[0] += lump[i] * phi
		sums[1] += lump[i] * (1 - phi*phi)
		sums[2] += lump[i] * 0.5 * sol.Par.Density(phi) * u2
	}
	sums = m.GlobalSumN(sums)
	fp := fingerprint{Step: s.StepIndex, Elems: s.GlobalElems(),
		Phi: sums[0], Interface: sums[1], Kinetic: sums[2]}
	return fp, sums[3] == 0
}

// refTol is the largest relative deviation from the stored reference a
// run may show, and elemTol the largest relative element-count deviation.
const (
	refTol  = 1e-4
	elemTol = 0.02
)

// errAgainst returns the largest relative deviation of got's integrals
// from ref's. The kinetic energy is compared on the scale of the larger
// of itself and 1e-12, so a flow still at rest does not divide by zero.
func (got fingerprint) errAgainst(ref fingerprint) float64 {
	rel := func(a, b float64) float64 {
		return math.Abs(a-b) / math.Max(math.Abs(b), 1e-12)
	}
	return math.Max(rel(got.Phi, ref.Phi), math.Max(rel(got.Interface, ref.Interface), rel(got.Kinetic, ref.Kinetic)))
}

// referenceFile is benchmark/reference.json: per workload and seed, the
// fingerprint a healthy run shows after its last step at the design run
// length. Only `-write-reference` changes it.
const referenceFile = "benchmark/reference.json"

// referenceSeeds are the seeds a reference is stored for. Other seeds are
// checked by the invariants alone (finite fields, Scenario.Validate, phi
// conservation, no failed step).
var referenceSeeds = []int64{1, 2, 3}

//go:embed reference.json
var referenceJSON []byte

// reference maps workload name -> seed (as text) -> fingerprint.
type reference map[string]map[string]fingerprint

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	return ref, nil
}

func (r reference) lookup(workload string, seed int64) (fingerprint, bool) {
	fp, ok := r[workload][fmt.Sprint(seed)]
	return fp, ok
}

// massTol bounds the relative drift of the phi integral over a run: CH
// conserves it and the remesh transfer is interpolatory, so a healthy run
// stays far inside this on any seed.
const massTol = 1e-3

// checkRun applies the correctness gate to a finished window and returns
// every violated condition (none: the run is correct) and the reference
// error, which is 0 when no reference applies.
func checkRun(start, end fingerprint, finite bool, validate error, ref fingerprint, hasRef bool) (problems []string, refErr float64) {
	if !finite {
		problems = append(problems, "non-finite field values")
	}
	if validate != nil {
		problems = append(problems, "Scenario.Validate: "+validate.Error())
	}
	if d := math.Abs(end.Phi-start.Phi) / math.Max(math.Abs(start.Phi), 1e-12); !(d <= massTol) {
		problems = append(problems, fmt.Sprintf("phi integral drifted by %.3g over the window (limit %g)", d, massTol))
	}
	if hasRef && ref.Step == end.Step {
		refErr = end.errAgainst(ref)
		if !(refErr <= refTol) {
			problems = append(problems, fmt.Sprintf("ref_err_max %.3g exceeds %g", refErr, refTol))
		}
		if d := math.Abs(float64(end.Elems-ref.Elems)) / float64(ref.Elems); d > elemTol {
			problems = append(problems, fmt.Sprintf("element count %d is %.1f%% off the reference %d", end.Elems, 100*d, ref.Elems))
		}
	}
	return problems, refErr
}
