package tensor

import "rhsd/internal/cpu"

// amd64 int8 micro-kernel registration: qvnni 8×32, 16 ZMM
// accumulators (8 rows × two 16-dword vectors), one VPDPBUSD per row
// per k-group — exact int32 accumulation.
//
// KC is a multiple of 4 (the packers emit 4-deep byte groups).
// Integer accumulation is exact, so KC/NC need not match qgo's for
// bit-stability — qvnni carries the blocking the measured sweep
// (BenchmarkQGemmBlockSweep) preferred. KC=768 additionally makes the
// dominant backbone shapes (kk ≤ 768) a single k-block, which skips
// the int32 carry buffer entirely.
var qarchKernels = []*qgemmKernel{
	{name: "qvnni", kind: qmicroVNNI8x32, mr: 8, nr: 32, kc: 768, nc: 128},
}

// qarchPreferred orders the default selection widest-first.
var qarchPreferred = []string{"qvnni", "qgo"}

func qarchKernelUsable(kr *qgemmKernel) bool {
	switch kr.kind {
	case qmicroVNNI8x32:
		return cpu.X86.HasAVX512VNNI()
	default:
		return true
	}
}

// qgemmMicroRun executes one int8 micro-kernel invocation:
// acc[r*nr+s] = Σ over kc4 4-deep k-groups of pa·pb products,
// overwriting the mr×nr tile prefix of acc. Static switch dispatch for
// the same escape-analysis reason as gemmMicroRun.
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
	case qmicroVNNI8x32:
		_ = pa[kc4*32-1]
		_ = pb[kc4*128-1]
		qgemmMicroVNNI(kc4, &pa[0], &pb[0], acc)
	default:
		panic("tensor: unknown int8 micro-kernel kind")
	}
}

// Flags for qgemmMicroVNNIStore: how the tile meets the carry of the
// conv's other k-blocks, and whether the leaky ReLU runs.
const (
	qtileCarryIn  = 1 << iota // add the int32 carry of earlier k-blocks
	qtileCarryOut             // not the last k-block: write the sums to the carry
	qtileAct                  // leaky ReLU after the dequantize
)

// qgemmMicroStore finishes a full MR×NR tile inside the micro-kernel
// when the kernel has a fused store — today qvnni — and reports whether
// it did. For a conv whose k spans several blocks, the first block
// writes the int32 sums to the tile's carry slot, later blocks add to
// it, and the last adds the carry before it dequantizes. The dequantize
// performs qstoreTile's per-element operations in qstoreTile's order,
// so the float results are bit-identical; partial tiles and every other
// kernel return false and the caller stores the tile in Go.
func qgemmMicroStore(kind qmicroKind, kc4 int, pa []int8, pb []uint8, c []float32, n, i0, j0 int, carry []int32, first, last bool, ep qepilogue) bool {
	if kind != qmicroVNNI8x32 || kc4 <= 0 {
		return false
	}
	const mr, nr = 8, 32
	_ = pa[kc4*mr*4-1]
	_ = pb[kc4*nr*4-1]
	flags := 0
	var cp *int32
	if !first || !last {
		_ = carry[mr*nr-1]
		cp = &carry[0]
	}
	if !first {
		flags |= qtileCarryIn
	}
	if !last {
		qgemmMicroVNNIStore(kc4, &pa[0], &pb[0], nil, 0, cp, flags|qtileCarryOut, nil, nil, nil, 0)
		return true
	}
	base := i0*n + j0
	_ = c[base+(mr-1)*n+nr-1]
	deq := ep.deqScale[i0 : i0+mr]
	corr := ep.corr[i0 : i0+mr]
	bias := &zeroBias[0]
	if ep.bias != nil {
		bias = &ep.bias[i0:][:mr][0]
	}
	if ep.act {
		flags |= qtileAct
	}
	qgemmMicroVNNIStore(kc4, &pa[0], &pb[0], &c[base], n*4, cp, flags, &deq[0], &corr[0], bias, ep.slope)
	return true
}

// qpackIm2colPanel packs the kc k-rows from k-row pc of the 32-column
// B panel at column j0 with AVX-512, and reports whether it did. It
// covers qvnni panels whose columns are consecutive pixels of one
// output row at stride 1 or 2 on a host with AVX512BW; every other
// panel, and every other kernel, takes the Go packer, which stays the
// bit reference.
//
// The panel's plan (im2colPanelPlan) is built once: for each tap
// (ky, kx) of the window, its offset from the first column's top-left
// tap, and the mask of the columns whose source pixel lies inside the
// image — none when row ty+ky is outside it. The vector code then needs
// no bounds logic: a masked-off lane is never read and keeps the zero
// point.
func qpackIm2colPanel(kind qmicroKind, bs qbSource, dst []uint8, j0, pc, kc int) bool {
	const nr = 32
	o := bs.o
	kern, stride := o.Kernel, o.Stride
	ntaps := kern * kern
	if kind != qmicroVNNI8x32 || !cpu.X86.HasAVX512BW() || kc <= 0 ||
		stride > 2 || ntaps > maxPanelTaps {
		return false
	}
	h, w, ow := bs.h, bs.w, bs.ow
	oy := j0 / ow
	ox := j0 - oy*ow
	if ox+nr > ow {
		return false
	}
	// (ty, tx): the top-left tap of column 0, in the padding when negative.
	ty, tx := oy*stride-o.Padding, ox*stride-o.Padding
	var taps [maxPanelTaps]int
	var masks [maxPanelTaps]uint64
	im2colPanelPlan(kern, stride, h, w, ty, tx, &taps, &masks)
	ch := pc / ntaps
	_ = dst[(kc+3)/4*nr*4-1]
	qpackPanelAVX512(&dst[0], &bs.data[0], ch*h*w+ty*w+tx, &taps[0], &masks[0],
		ntaps, pc-ch*ntaps, h*w, kc, stride, uint32(bs.zero)*0x01010101)
	return true
}

// qgemmMicroVNNI is the assembly micro-kernel (qgemm_micro_amd64.s):
// it overwrites the leading 8×32 int32s of acc.
//
//go:noescape
func qgemmMicroVNNI(kc4 int, pa *int8, pb *uint8, acc *[qgemmMaxTile]int32)

// qgemmMicroVNNIStore is qgemmMicroVNNI with the tile finished without
// a Go-side accumulator (see qgemmMicroStore): combined with the carry
// at carry, and either written back there or dequantized into the rows
// at c, each ldc bytes below the last.
//
//go:noescape
func qgemmMicroVNNIStore(kc4 int, pa *int8, pb *uint8, c *float32, ldc int, carry *int32, flags int, deq *float32, corr *int32, bias *float32, slope float32)

// qpackPanelAVX512 is the vector body of qpackIm2colPanel
// (qgemm_micro_amd64.s): org is the byte offset of the first column's
// top-left tap of channel pc/ntaps from src, and may be negative.
//
//go:noescape
func qpackPanelAVX512(dst, src *uint8, org int, taps *int, masks *uint64, ntaps, t0, chStride, kc, stride int, zp4 uint32)

// qinterleaveRows writes dst[s*4+j] = rj[s] for s < n — the 4-deep
// k-group interleave the packed-B layout wants — 16 columns per SSE2
// step. Packing was the quantized GEMM's hot spot as a scalar loop
// (stride-4 byte scatters), not the dot products.
func qinterleaveRows(dst []uint8, r0, r1, r2, r3 []uint8, n int) {
	if n <= 0 {
		return
	}
	_ = dst[n*4-1]
	_, _, _, _ = r0[n-1], r1[n-1], r2[n-1], r3[n-1]
	qinterleave4(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], n)
}

//go:noescape
func qinterleave4(dst *uint8, r0, r1, r2, r3 *uint8, n int)
