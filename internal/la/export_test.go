package la

// SetForceGenericSpan routes every SpMV through the run-time-bs kernel
// (true) or back through the block-size dispatch (false). Call it only
// while no rank goroutine is running.
func SetForceGenericSpan(on bool) { forceGenericSpan = on }

// BitsDiff describes the first bitwise difference between two vectors
// ("" when there is none).
var BitsDiff = bitsDiff
