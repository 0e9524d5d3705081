package chns

import "reflect"

// SetCHRefill makes every CH element sweep integrate its K_m(φ) and C(u)
// blocks afresh (true) instead of reading the block store, or restores the
// sharing (false): the oracle the store is compared against.
func (s *Solver) SetCHRefill(on bool) { s.chRefill = on }

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
