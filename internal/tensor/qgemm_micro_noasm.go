//go:build !amd64

package tensor

// No int8 assembly kernels off amd64: only the portable exact reference
// is registered and "qgo" stays the default.
var qarchKernels []*qgemmKernel

var qarchPreferred []string

func qarchKernelUsable(kr *qgemmKernel) bool { return kr.kind == qmicroGoExact }

// qinterleaveRows writes dst[s*4+j] = rj[s] for s < n (see the amd64
// variant for the contract).
func qinterleaveRows(dst []uint8, r0, r1, r2, r3 []uint8, n int) {
	for s := 0; s < n; s++ {
		d := dst[s*4 : s*4+4]
		d[0], d[1], d[2], d[3] = r0[s], r1[s], r2[s], r3[s]
	}
}

// qgemmMicroStore reports false: no kernel off amd64 finishes its own
// tiles, so every tile goes through qstoreTile.
func qgemmMicroStore(kind qmicroKind, kc4 int, pa []int8, pb []uint8, c []float32, n, i0, j0 int, carry []int32, first, last bool, ep qepilogue) bool {
	return false
}

// qpackIm2colPanel reports false: every panel takes the Go packer.
func qpackIm2colPanel(kind qmicroKind, bs qbSource, dst []uint8, j0, pc, kc int) bool {
	return false
}

// qgemmMicroRun executes one int8 micro-kernel invocation (see the
// amd64 variant for the contract).
func qgemmMicroRun(kind qmicroKind, mr, nr, kc4 int, pa []int8, pb []uint8, acc *[qgemmMaxTile]int32) {
	if kc4 <= 0 {
		tile := acc[:mr*nr]
		for i := range tile {
			tile[i] = 0
		}
		return
	}
	switch kind {
	case qmicroGoExact:
		qgemmMicroGoExact(mr, nr, kc4, pa, pb, acc)
	default:
		panic("tensor: unknown int8 micro-kernel kind")
	}
}
