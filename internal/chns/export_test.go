package chns

// SetCHRefill makes every CH element sweep integrate its K_m(φ) and C(u)
// blocks afresh (true) instead of reading the block store, or restores the
// sharing (false): the oracle the store is compared against.
func (s *Solver) SetCHRefill(on bool) { s.chRefill = on }

// BitsDiff describes the first bitwise difference between two vectors
// ("" when there is none).
var BitsDiff = bitsDiff
