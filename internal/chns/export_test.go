package chns

import (
	"reflect"

	"proteus/internal/la"
)

// SetCHRefill makes every CH element sweep integrate its K_m(φ) and C(u)
// blocks afresh (true) instead of reading the block store, or restores the
// sharing (false): the oracle the store is compared against.
func (s *Solver) SetCHRefill(on bool) { s.chRefill = on }

// SetNSExpandedPC makes the NS stage assemble its momentum matrix the way
// it was stored before the scalar operator, as the explicit expansion
// A ⊗ I_dim with dim x dim blocks a·I on the velocity assembler (true),
// or restores the scalar A applied to every component (false). Every
// ILU(0) built on the stage matrix then factors the full expansion: the
// block-Jacobi PC, and under GMG the fine-level smoother (the coarse
// levels are scalar either way). It is the oracle the scalar operator is
// compared against. Call it before the first NS step.
func (s *Solver) SetNSExpandedPC(on bool) {
	s.ns.asm, s.ns.matK = s.asmS, s.kNSMatZip
	if on {
		s.ns.asm, s.ns.matK = s.asmVel, s.kNSMatExpanded
	}
	s.ns.mat, s.ns.pc = nil, nil
}

// kNSMatExpanded is the NS matrix kernel of the expansion A ⊗ I_dim: A's
// element block on every velocity component.
func (s *Solver) kNSMatExpanded(w, e int, h float64, blocks [][]float64) {
	s.kNSMatZip(w, e, h, blocks)
	dim := s.M.Dim
	for d := 1; d < dim; d++ {
		copy(blocks[d*dim+d], blocks[0])
	}
}

// BitsDiff describes the first bitwise difference between two vectors
// ("" when there is none).
var BitsDiff = bitsDiff

// SetCHNewtonExact switches the CH Newton driver to its exact-solve oracle
// (every inner solve to LinTol, no chord step) or back. The switch is
// la.Newton's unexported test field and la deliberately has no API for it,
// so a test outside la reaches it by reflection; a renamed field panics here.
func (s *Solver) SetCHNewtonExact(on bool) {
	f := reflect.ValueOf(&s.chNewton).Elem().FieldByName("exact")
	*(*bool)(f.Addr().UnsafePointer()) = on
}

// Structure returns the patterns of the CH, NS, PP and VU operators and
// the address of the ILU(0) index each of the CH, NS and PP block-Jacobi
// factors holds (0 for a stage whose PC is no such factor). The index is
// la's unexported type, so it is read by reflection; a renamed field
// panics here.
func (s *Solver) Structure() (sps [4]*la.Sparsity, idx [3]uintptr) {
	for i, st := range s.stages() {
		if st.mat != nil {
			sps[i] = st.mat.Sparsity()
		}
		if p, ok := st.pc.(*la.PCBJacobiILU0); ok && i < len(idx) {
			idx[i] = reflect.ValueOf(p).Elem().FieldByName("iluIndex").Pointer()
		}
	}
	return sps, idx
}

// KrylovWorkspaces returns the Krylov workspace each KSP the solver runs
// is given: the NS, PP and VU stages', the CH mass solve's and the CH
// Newton driver's, which hands it to its inner KSP (la's
// TestNewtonShrinkSolveZeroAllocs checks that the inner KSP keeps none of
// its own).
func (s *Solver) KrylovWorkspaces() map[string]*la.Workspace {
	return map[string]*la.Workspace{"ns": s.ns.ksp.Work, "pp": s.pp.ksp.Work, "vu": s.vu.ksp.Work,
		"chMass": s.chMass.ksp.Work, "chNewton": s.chNewton.Work}
}
