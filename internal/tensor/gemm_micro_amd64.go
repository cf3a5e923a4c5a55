package tensor

import "rhsd/internal/cpu"

// amd64 micro-kernel registrations. SSE2 is architectural baseline;
// AVX2/AVX-512 are gated on runtime CPUID + OS state (internal/cpu).
//
// Geometry notes:
//   - sse 4×8: the historic kernel — two 4-lane XMM vectors per row,
//     MULPS/ADDPS (muladd family).
//   - avx2 6×16: 12 YMM accumulators (6 rows × two 8-lane vectors),
//     2 B loads + 1 broadcast = 15 of 16 registers, VFMADD231PS.
//   - avx512 8×32: 16 ZMM accumulators (8 rows × two 16-lane vectors),
//     using Z16–Z18 for loads/broadcast (EVEX gives 32 registers).
//
// KC is identical across kernels of one rounding family so each family
// stays internally bit-stable (see gemm_kernel.go): muladd (go, sse)
// uses 256, fma (go-fma, avx2, avx512) uses 192. NC is numerics-free
// and tuned per kernel; both come from the measured cache-block sweep
// (BenchmarkGemmBlockSweep) at the backbone GEMM shapes.
var archKernels = []*gemmKernel{
	{name: "sse", kind: microSSE4x8, ref: microGo4x8, mr: 4, nr: 8, kc: 256, nc: 128},
	{name: "avx2", kind: microAVX2x6x16, ref: microGoFMA, mr: 6, nr: 16, kc: 192, nc: 512, fma: true},
	{name: "avx512", kind: microAVX512x8x32, ref: microGoFMA, mr: 8, nr: 32, kc: 192, nc: 128, fma: true},
}

// archPreferred orders the default selection widest-first.
var archPreferred = []string{"avx512", "avx2", "sse"}

func archKernelUsable(kr *gemmKernel) bool {
	switch kr.kind {
	case microAVX2x6x16:
		return cpu.X86.HasAVX2FMA()
	case microAVX512x8x32:
		return cpu.X86.HasAVX512()
	default:
		return true
	}
}

// gemmMicroRun executes one micro-kernel invocation:
// acc[r*nr+s] = Σ_p pa[p*mr+r]·pb[p*nr+s] over kc packed steps,
// overwriting (not accumulating into) the mr×nr tile prefix of acc.
// Dispatch is a static switch (see microKind) so the accumulator never
// escapes to the heap.
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
	case microSSE4x8:
		_ = pa[kc*4-1]
		_ = pb[kc*8-1]
		gemmMicro4x8SSE(kc, &pa[0], &pb[0], acc)
	case microAVX2x6x16:
		_ = pa[kc*6-1]
		_ = pb[kc*16-1]
		gemmMicroAVX2(kc, &pa[0], &pb[0], acc)
	case microAVX512x8x32:
		_ = pa[kc*8-1]
		_ = pb[kc*32-1]
		gemmMicroAVX512(kc, &pa[0], &pb[0], acc)
	default:
		panic("tensor: unknown micro-kernel kind")
	}
}

// Flags for gemmMicroAVX512Store: how the tile combines with C, and
// which epilogue steps run after the combine.
const (
	tileScale = 1 << iota // C = beta·C + acc (first k-block, beta ∉ {0, 1})
	tileAccum             // C = C + acc (later k-blocks, or beta = 1)
	tileBias              // v += bias[row]
	tileAct               // leaky ReLU: v < 0 → v·slope
)

// zeroBias is the bias row of an activation-only epilogue: adding it is
// the +0 the Go epilogue adds for a nil bias.
var zeroBias [gemmMaxMR]float32

// gemmMicroStore finishes a full MR×NR tile in C inside the micro-kernel
// when the kernel has a fused store — today the avx512 kernel — and
// reports whether it did. The vector code performs storeTile's
// per-element operations in the same order: the combine with C (copy,
// beta·C + acc, or C + acc, with C as the first operand of each add)
// and, on the last k-block, the epilogue's bias add and leaky ReLU. A
// tile whose columns cross one item boundary of out is written through
// two masked segments; one that spans three or more items, every
// partial tile and every other kernel return false, and the caller
// stores the tile in Go.
func gemmMicroStore(kind microKind, kc int, pa, pb []float32, out cOut, i0, j0 int, first, last bool) bool {
	if kind != microAVX512x8x32 || kc <= 0 {
		return false
	}
	const mr, nr = 8, 32
	cols := out.cols
	item, p := j0/cols, j0%cols
	split := cols - p // tile columns that land in the first item
	base0 := item*out.item + i0*cols + p
	base1 := base0
	if split >= nr {
		split = nr
	} else {
		if nr-split > cols {
			return false
		}
		base1 = (item+1)*out.item + i0*cols
		_ = out.data[base1+(mr-1)*cols+nr-split-1]
	}
	_ = out.data[base0+(mr-1)*cols+split-1]
	_ = pa[kc*mr-1]
	_ = pb[kc*nr-1]
	flags := tileAccum
	if first && out.beta == 0 {
		flags = 0
	} else if first && out.beta != 1 {
		flags = tileScale
	}
	bias := &zeroBias[0]
	if last {
		if out.ep.Bias != nil {
			bias = &out.ep.Bias.data[i0:][:mr][0]
			flags |= tileBias
		}
		if out.ep.Act {
			flags |= tileBias | tileAct
		}
	}
	gemmMicroAVX512Store(kc, &pa[0], &pb[0], &out.data[base0], &out.data[base1], cols*4, split, flags,
		out.beta, out.ep.Slope, bias)
	return true
}

// maxPanelTaps bounds the conv window the vector im2col packers plan:
// kernels up to 7×7. Larger windows take the Go packers.
const maxPanelTaps = 49

// im2colPanelPlan builds the plan of a 32-column im2col panel whose
// columns are consecutive pixels of one output row, for the vector
// packers of both precisions: for tap t = ky·kern + kx, taps[t] is its
// offset from the first column's top-left tap (ty, tx), and masks[t]
// has bit e·stride set for each column e whose source pixel lies inside
// the h×w image — no bit when row ty+ky lies outside it. A k-row's
// loads cover 32·stride source elements from column tx+kx on; the ones
// inside the image are a range [lo, hi), so each kx's mask is two
// shifts (for stride 2 keeping the even elements, which the columns
// read).
func im2colPanelPlan(kern, stride, h, w, ty, tx int, taps *[maxPanelTaps]int, masks *[maxPanelTaps]uint64) {
	span := 32 * stride
	for kx := 0; kx < kern; kx++ {
		sx := tx + kx
		lo := min(max(-sx, 0), span)
		hi := min(max(w-sx, lo), span)
		m := (uint64(1)<<hi - 1) &^ (uint64(1)<<lo - 1)
		if stride == 2 {
			m &= 0x5555555555555555
		}
		for ky := 0; ky < kern; ky++ {
			t := ky*kern + kx
			taps[t] = ky*w + kx
			masks[t] = 0
			if uint(ty+ky) < uint(h) {
				masks[t] = m
			}
		}
	}
}

// packIm2colPanel packs the kc k-rows from k-row pc of a 32-column B
// panel of the avx512 kernel with AVX-512, and reports whether it did.
// The caller has checked that the panel's columns are consecutive
// pixels of one output row; base is their item's image offset and
// (ty, tx) the first column's top-left tap, in the padding when
// negative. It covers strides 1 and 2 and windows up to 7×7; every
// other panel, and every other kernel, takes the Go packers, which stay
// the bit reference. Loads and lane selects move each float unchanged,
// and a lane outside the image is +0, the bits clear writes.
func packIm2colPanel(kind microKind, bs bSource, dst []float32, base, ty, tx, pc, kc int) bool {
	const nr = 32
	kern, stride := bs.o.Kernel, bs.o.Stride
	ntaps := kern * kern
	if kind != microAVX512x8x32 || kc <= 0 || stride > 2 || ntaps > maxPanelTaps {
		return false
	}
	h, w := bs.h, bs.w
	var taps [maxPanelTaps]int
	var masks [maxPanelTaps]uint64
	im2colPanelPlan(kern, stride, h, w, ty, tx, &taps, &masks)
	ch := pc / ntaps
	_ = dst[kc*nr-1]
	packPanelAVX512(&dst[0], &bs.data[0], base+ch*h*w+ty*w+tx, &taps[0], &masks[0],
		ntaps, pc-ch*ntaps, h*w, kc, stride)
	return true
}

// Assembly micro-kernels (gemm_micro_amd64.s). Each overwrites the
// leading mr×nr floats of acc; MULPS/ADDPS for SSE (muladd family),
// VFMADD231PS for AVX2/AVX-512 (fma family).
//
//go:noescape
func gemmMicro4x8SSE(kc int, pa, pb *float32, acc *[gemmMaxTile]float32)

//go:noescape
func gemmMicroAVX2(kc int, pa, pb *float32, acc *[gemmMaxTile]float32)

//go:noescape
func gemmMicroAVX512(kc int, pa, pb *float32, acc *[gemmMaxTile]float32)

// gemmMicroAVX512Store is gemmMicroAVX512 with the tile finished in C
// instead of written to an accumulator (see gemmMicroStore): tile
// columns [0, split) go to the rows at c0, columns [split, 32) to the
// rows at c1 (which holds column split), each row ldc bytes below the
// last.
//
//go:noescape
func gemmMicroAVX512Store(kc int, pa, pb, c0, c1 *float32, ldc, split, flags int, beta, slope float32, bias *float32)

// packPanelAVX512 is the vector body of packIm2colPanel
// (gemm_micro_amd64.s): org is the float offset of the first column's
// top-left tap of channel pc/ntaps from src, and may be negative.
//
//go:noescape
func packPanelAVX512(dst, src *float32, org int, taps *int, masks *uint64, ntaps, t0, chStride, kc, stride int)
