package tensor

import (
	"math"
	"slices"
)

// fp32 GEMM micro-kernels and their registry, gemmKernels (a kernelSet,
// kernels.go).
//
// The packed GEMM (gemm_packed.go) is parameterised by a register-tile
// geometry (MR×NR) and cache blocking (KC/NC). Each supported geometry +
// instruction set is a *gemmKernel; the widest kernel the host supports
// is selected once at init and every Gemm call reads it through an
// atomic pointer, so ops can flip kernels at runtime (tests, triage)
// without a data race.
//
// Numerics: kernels fall into two rounding families.
//
//   - "muladd" (go, sse): each accumulation step rounds the product and
//     the sum separately (MULPS/ADDPS ≡ scalar a*b then +), the historic
//     semantics of this repo.
//   - "fma" (go-fma, avx2, avx512): each step is a fused multiply-add
//     with a single rounding (VFMADD231PS). The portable reference
//     emulates it with math.FMA in float64 — double rounding
//     float64→float32 is exact for float32 FMA because float64 carries
//     ≥ 2·24+2 significand bits (Figueroa's theorem), so the Go
//     reference and the hardware kernel are bit-identical.
//
// Within a family every kernel produces bit-identical results for the
// whole packed GEMM: the per-element accumulation order (k ascending,
// KC-blocked with KC equal across the family's kernels) does not depend on MR/NR,
// only the per-step rounding differs between families. Across families
// results agree to rounding, not to the bit — pinned by the kernel
// parity suites and the hsd cross-kernel scan test.
const (
	gemmMaxMR   = 8
	gemmMaxNR   = 32
	gemmMaxTile = gemmMaxMR * gemmMaxNR
)

// microKind names a concrete micro-kernel implementation for the static
// dispatch in gemmMicroRun. Dispatch is a switch over this enum rather
// than a stored func value on purpose: an indirect call would make
// escape analysis assume the stack-allocated accumulator tile escapes,
// heap-allocating ~1 KB per micro-tile and destroying the
// zero-allocation inference guarantee.
type microKind uint8

const (
	microGo4x8 microKind = iota // portable unrolled mul-add (historic reference)
	microGoFMA                  // portable math.FMA reference, geometry from the kernel
	microSSE4x8
	microAVX2x6x16
	microAVX512x8x32
)

// gemmKernel describes one registered micro-kernel: its register-tile
// geometry, cache blocking, rounding family, production implementation
// and the portable reference it is bit-pinned against.
type gemmKernel struct {
	name string
	kind microKind // production implementation
	ref  microKind // portable bit-reference implementation
	mr   int       // register tile rows; A packs into mr-wide panels
	nr   int       // register tile cols; B packs into nr-wide panels
	kc   int       // k-block depth (equal within a family: keeps it bit-stable)
	nc   int       // column-block width (multiple of nr)
	fma  bool      // rounding family: true = fused multiply-add
}

func (kr *gemmKernel) family() string {
	if kr.fma {
		return "fma"
	}
	return "muladd"
}

// refTwin returns a copy of kr that runs the portable reference
// implementation with identical geometry — the comparison arm of the
// bit-parity suites.
func (kr *gemmKernel) refTwin() *gemmKernel {
	twin := *kr
	twin.name = kr.name + "-ref"
	twin.kind = kr.ref
	return &twin
}

// portableKernels are available on every architecture. Geometry of the
// FMA reference matches the AVX2 kernel so forcing `go-fma` reproduces
// the AVX2/AVX-512 scan bits on any machine.
var portableKernels = []*gemmKernel{
	{name: "go", kind: microGo4x8, ref: microGo4x8, mr: 4, nr: 8, kc: 256, nc: 128},
	{name: "go-fma", kind: microGoFMA, ref: microGoFMA, mr: 6, nr: 16, kc: 192, nc: 128, fma: true},
}

// gemmKernels is the fp32 registry (kernels.go); Gemm dispatches to
// gemmKernels.active, one atomic load on the hot path.
var gemmKernels = kernelSet[gemmKernel]{
	label:     "GEMM",
	env:       "RHSD_GEMM_KERNEL",
	all:       slices.Concat(portableKernels, archKernels),
	preferred: archPreferred,
	name:      func(kr *gemmKernel) string { return kr.name },
	usable:    archKernelUsable,
}

// GemmKernels lists every registered kernel name, available or not,
// sorted for stable output.
func GemmKernels() []string { return gemmKernels.names() }

// GemmKernelAvailable reports whether the named kernel is registered and
// safe to execute on this machine.
func GemmKernelAvailable(name string) bool { return gemmKernels.available(name) }

// GemmKernel returns the name of the kernel Gemm currently dispatches to.
func GemmKernel() string { return gemmKernels.activeName() }

// GemmKernelFamily returns the rounding family ("muladd" or "fma") of a
// registered kernel, or "" when unknown. Kernels within one family are
// bit-identical for the whole packed GEMM; across families results agree
// to rounding only.
func GemmKernelFamily(name string) string {
	kr := gemmKernels.lookup(name)
	if kr == nil {
		return ""
	}
	return kr.family()
}

// SetGemmKernel makes Gemm dispatch to the named kernel and returns the
// previously active name. It errors (leaving the active kernel
// unchanged) when the kernel is unknown or unsupported on this machine.
// The swap is atomic: concurrent Gemm calls see either kernel, each call
// using exactly one. Intended for tests, benchmarks and ops triage — the
// RHSD_GEMM_KERNEL environment variable applies it at process start.
func SetGemmKernel(name string) (prev string, err error) { return gemmKernels.swap(name) }

// RequestedGemmKernel reports the RHSD_GEMM_KERNEL override: the
// requested name, whether the variable was set, and whether the request
// was honored (false means the kernel was unknown or unsupported and
// dispatch fell back to the auto choice).
func RequestedGemmKernel() (name string, present, honored bool) {
	r := gemmKernels.request
	return r.name, r.present, r.honored
}

// gemmMicroGoFMARef is the portable reference for the FMA-family
// kernels: acc[r*nr+s] = fma(pa[p*mr+r], pb[p*nr+s], acc[r*nr+s]) with a
// single rounding per step. math.FMA in float64 over float32 operands
// rounds exactly like a hardware float32 FMA (see the family comment at
// the top of this file), and on amd64 it compiles to a VFMADD
// instruction, so this reference is both bit-exact and tolerably fast as
// the portable fallback.
func gemmMicroGoFMARef(mr, nr, kc int, pa, pb []float32, acc *[gemmMaxTile]float32) {
	tile := acc[:mr*nr]
	for i := range tile {
		tile[i] = 0
	}
	pa = pa[:kc*mr]
	pb = pb[:kc*nr]
	for p := 0; p < kc; p++ {
		av := pa[p*mr : p*mr+mr]
		bv := pb[p*nr : p*nr+nr]
		for r, a := range av {
			row := tile[r*nr : r*nr+nr]
			a64 := float64(a)
			for s, b := range bv {
				row[s] = float32(math.FMA(a64, float64(b), float64(row[s])))
			}
		}
	}
}
