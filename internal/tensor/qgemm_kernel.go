package tensor

import "slices"

// Int8 GEMM micro-kernels and their registry, qgemmKernels (a
// kernelSet, kernels.go). The packed int8 GEMM (qgemm_packed.go) is
// parameterised like the fp32 one — MR×NR register tile, KC/NC cache
// blocking — but accumulates in int32 over k-groups of 4 bytes, the
// granule VPDPBUSD (AVX-512 VNNI) consumes.
//
// Numerics: every kernel accumulates u8·s8 products exactly in int32,
// so unlike the float32 kernels there is no rounding-order concern —
// all kernels return bit-identical results for any geometry and any
// input bytes (pinned by TestQGemmKernelDomainAgreement), and int8
// outputs are the same on every host.
const (
	qgemmMaxMR   = 8
	qgemmMaxNR   = 32
	qgemmMaxTile = qgemmMaxMR * qgemmMaxNR
)

// qmicroKind names a concrete int8 micro-kernel implementation; static
// switch dispatch for the same escape-analysis reason as microKind.
type qmicroKind uint8

const (
	qmicroGoExact qmicroKind = iota // portable exact int32 reference
	qmicroVNNI8x32
)

// qgemmKernel describes one registered int8 micro-kernel. kc must be a
// multiple of 4 (the k-group granule) and nc a multiple of nr.
type qgemmKernel struct {
	name string
	kind qmicroKind
	mr   int
	nr   int
	kc   int
	nc   int
}

// refTwin returns a same-geometry copy running the portable exact
// reference — the comparison arm of the int8 bit-parity suites.
func (kr *qgemmKernel) refTwin() *qgemmKernel {
	twin := *kr
	twin.name = kr.name + "-ref"
	twin.kind = qmicroGoExact
	return &twin
}

// qportableKernels are available on every architecture.
var qportableKernels = []*qgemmKernel{
	{name: "qgo", kind: qmicroGoExact, mr: 4, nr: 16, kc: 256, nc: 128},
}

// qgemmKernels is the int8 registry (kernels.go); quantized GEMMs
// dispatch to qgemmKernels.active.
var qgemmKernels = kernelSet[qgemmKernel]{
	label:     "int8 GEMM",
	env:       "RHSD_QGEMM_KERNEL",
	all:       slices.Concat(qportableKernels, qarchKernels),
	preferred: qarchPreferred,
	name:      func(kr *qgemmKernel) string { return kr.name },
	usable:    qarchKernelUsable,
}

// QGemmKernels lists every registered int8 kernel name, available or
// not, sorted for stable output.
func QGemmKernels() []string { return qgemmKernels.names() }

// QGemmKernelAvailable reports whether the named int8 kernel is
// registered and safe to execute on this machine.
func QGemmKernelAvailable(name string) bool { return qgemmKernels.available(name) }

// QGemmKernel returns the name of the active int8 kernel.
func QGemmKernel() string { return qgemmKernels.activeName() }

// SetQGemmKernel makes the quantized GEMM dispatch to the named kernel
// and returns the previously active name; unknown or unsupported names
// error and leave dispatch unchanged. The swap is atomic, like
// SetGemmKernel. Note layers pre-pack their quantized weights for every
// usable kernel, so a swap needs no repacking (nn/quant.go).
func SetQGemmKernel(name string) (prev string, err error) { return qgemmKernels.swap(name) }

// RequestedQGemmKernel reports the RHSD_QGEMM_KERNEL override: requested
// name, whether the variable was set, and whether it was honored.
func RequestedQGemmKernel() (name string, present, honored bool) {
	r := qgemmKernels.request
	return r.name, r.present, r.honored
}

// qgemmMicroGoExact is the portable exact reference:
//
//	acc[r*nr+s] = Σ_g Σ_{j<4} pa[(g*mr+r)*4+j] · pb[(g*nr+s)*4+j]
//
// over kc4 k-groups, with unsigned activation bytes (pb) and signed
// weight bytes (pa) widened to int32 before the multiply — the
// VPDPBUSD semantics.
func qgemmMicroGoExact(mr, nr, kc4 int, pa []int8, pb []uint8, acc *[qgemmMaxTile]int32) {
	tile := acc[:mr*nr]
	for i := range tile {
		tile[i] = 0
	}
	pa = pa[:kc4*mr*4]
	pb = pb[:kc4*nr*4]
	for g := 0; g < kc4; g++ {
		ag := pa[g*mr*4 : (g*mr+mr)*4]
		bg := pb[g*nr*4 : (g*nr+nr)*4]
		for r := 0; r < mr; r++ {
			a0 := int32(ag[r*4])
			a1 := int32(ag[r*4+1])
			a2 := int32(ag[r*4+2])
			a3 := int32(ag[r*4+3])
			row := tile[r*nr : r*nr+nr]
			for s := 0; s < nr; s++ {
				row[s] += a0*int32(bg[s*4]) + a1*int32(bg[s*4+1]) +
					a2*int32(bg[s*4+2]) + a3*int32(bg[s*4+3])
			}
		}
	}
}
