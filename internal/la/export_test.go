package la

// SetForceGenericSpan routes every SpMV through the run-time-bs kernel
// (true) or back through the block-size dispatch (false). Call it only
// while no rank goroutine is running.
func SetForceGenericSpan(on bool) { forceGenericSpan = on }

// BitsDiff describes the first bitwise difference between two vectors
// ("" when there is none).
var BitsDiff = bitsDiff

// SetILU0PointOracle makes every NewPCBJacobiILU0 factor and sweep the
// scalar expansion of its matrix — the point ILU(0) the node-block kernels
// are pinned to — (true) or the matrix's own node blocks (false). Call it
// only while no rank goroutine is running.
func SetILU0PointOracle(on bool) {
	iluLayout = (*BSRMat).ownedBlocks
	if on {
		iluLayout = pointLayout
	}
}
