package chns

import (
	"reflect"

	"proteus/internal/la"
)

// SetCHRefill makes every CH element sweep integrate its K_m(φ) and C(u)
// blocks afresh (true) instead of reading the block store, or restores the
// sharing (false): the oracle the store is compared against.
func (s *Solver) SetCHRefill(on bool) { s.chRefill = on }

// SetNSExpandedPC makes the NS stage's default preconditioner factor the
// scalar expansion of the momentum matrix, every entry of every dim x dim
// block (true), instead of the scalar operator applied per component, or
// restores the production PC (false): the oracle the latter is compared
// against. Takes effect at the next PC construction.
func (s *Solver) SetNSExpandedPC(on bool) { s.nsPCFull = on }

// NSMatrix returns the momentum operator of the last NS solve, as
// assembled and pinned (nil before the first one on the current mesh).
func (s *Solver) NSMatrix() *la.BSRMat { return s.ns.mat }

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
