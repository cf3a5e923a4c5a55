//go:build !amd64

package tensor

// No assembly kernels off amd64: only the portable implementations are
// registered and the historic "go" kernel stays the default, so results
// on these architectures are unchanged.
var archKernels []*gemmKernel

var archPreferred []string

func archKernelUsable(kr *gemmKernel) bool {
	switch kr.kind {
	case microGo4x8, microGoFMA:
		return true
	default:
		return false
	}
}

// gemmMicroRun executes one micro-kernel invocation (see the amd64
// variant for the contract).
func gemmMicroRun(kind microKind, mr, nr, kc int, pa, pb []float32, acc *[gemmMaxTile]float32) {
	if kc <= 0 {
		tile := acc[:mr*nr]
		for i := range tile {
			tile[i] = 0
		}
		return
	}
	switch kind {
	case microGo4x8:
		gemmMicro4x8Go(kc, pa, pb, acc)
	case microGoFMA:
		gemmMicroGoFMARef(mr, nr, kc, pa, pb, acc)
	default:
		panic("tensor: unknown micro-kernel kind")
	}
}

// gemmMicroStore reports false: no kernel here has a fused tile store,
// so every tile is finished by storeTile.
func gemmMicroStore(kind microKind, kc int, pa, pb []float32, out cOut, i0, j0 int, first, last bool) bool {
	return false
}

// packIm2colPanel reports false: every panel takes the Go packers.
func packIm2colPanel(kind microKind, bs bSource, dst []float32, base, ty, tx, pc, kc int) bool {
	return false
}
