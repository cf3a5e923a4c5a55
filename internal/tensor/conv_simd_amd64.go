package tensor

import "rhsd/internal/cpu"

// AVX-512 bodies for two data-movement loops of the fp32 inference
// trunk: the 2×2/stride-2 max-pool and col2im's stride-1 run adds. Each
// moves, maxes or adds every value with the same operation in the same
// order as the Go loop it stands in for (maxPoolPlanes, addRunsGo), so
// the results are bit-identical, NaN payloads and signed zeros
// included. They run on any host with AVX-512F, whichever GEMM kernel
// is active; elsewhere the Go loops run.

// laneSelect holds VPERMT2PS index vectors over a pair of 16-float
// vectors: the even lanes 0, 2, …, 30, then the odd lanes 1, 3, …, 31.
// The stride-2 im2col packer keeps the even lanes, the max-pool both.
var laneSelect = [32]int32{
	0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30,
	1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31,
}

// maxPool2x2Vector pools planes [p0, p1) of xd [·, h, w] into od
// [·, h/2, w/2] with the 2×2/stride-2 window and reports whether it
// did. Each output starts from −1e30 and takes VMAXPS(tap, best) over
// its taps in (ky, kx) order, 16 outputs per step. VMAXPS returns its
// second source unless the first is greater, which is maxPoolPlanes'
// `if v > best` exactly, NaN and ±0 included.
func maxPool2x2Vector(xd []float32, h, w int, od []float32, p0, p1 int) bool {
	if !cpu.X86.AVX512F {
		return false
	}
	oh, ow := h/2, w/2
	if p1 <= p0 || oh == 0 || ow == 0 {
		return true
	}
	_ = xd[p1*h*w-1]
	_ = od[p1*oh*ow-1]
	t := ow % 16 // outputs past the last full step, 2t taps per input row
	in, out := uint32(1)<<(2*t)-1, uint32(1)<<t-1
	for p := p0; p < p1; p++ {
		maxPool2x2AVX512(&od[p*oh*ow], &xd[p*h*w], oh, ow, w, in, out)
	}
	return true
}

// addRunsVector is addRunsGo with AVX-512 and reports whether it ran:
// each step is VADDPS with the destination as the first operand, as
// `dd[e] += ss[e]` compiles, so even the NaN an add of two NaNs returns
// is the same. A run's last n mod 16 floats are one masked step whose
// masked-off lanes are neither read nor written.
func addRunsVector(dst, src []float32, rows, n, ds, ss int) bool {
	if !cpu.X86.AVX512F {
		return false
	}
	if rows <= 0 || n <= 0 {
		return true
	}
	_ = dst[(rows-1)*ds+n-1]
	_ = src[(rows-1)*ss+n-1]
	addRunsAVX512(&dst[0], &src[0], rows, n, ds, ss, uint32(1)<<(n%16)-1)
	return true
}

// maxPool2x2AVX512 (conv_simd_amd64.s) pools one [oh, ow] output plane
// from input rows w floats long; in masks the last step's input lanes
// (16 bits per vector) and out its outputs.
//
//go:noescape
func maxPool2x2AVX512(dst, src *float32, oh, ow, w int, in, out uint32)

// addRunsAVX512 (conv_simd_amd64.s) adds rows runs of n floats,
// dst[r·ds+e] += src[r·ss+e]; tail masks the last n mod 16 floats.
//
//go:noescape
func addRunsAVX512(dst, src *float32, rows, n, ds, ss int, tail uint32)
