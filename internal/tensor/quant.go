package tensor

import (
	"fmt"
	"math"
)

// Int8 quantization primitives for the quantized inference path.
//
// Two schemes (DESIGN.md §16):
//
//   - Weights: per-output-channel symmetric int8. Each output channel r
//     gets scale[r] = maxabs(w[r,:])/127 and w quantizes to
//     round-to-nearest-even(w/scale) saturated to [-127, 127]. Symmetric
//     quantization needs no zero-point correction on the weight side.
//   - Activations: per-tensor affine uint8 restricted to [0, ActQMax]
//     (127). Every calibrated scale and zero point, and so every int8
//     output and the region_int8 benchmark digest, is derived from that
//     cap; the qgemm kernels themselves accumulate exactly over any byte.
//
// Rounding is round-to-nearest-even with saturation in every direction:
// ±Inf pin to the range ends and NaN maps to the representation of 0.0
// (0 for weights, the zero point for activations), so a poisoned input
// cannot produce out-of-range quantized values.

// QuantParams is the affine quantization of one activation tensor:
// real = Scale·(q − Zero), with q restricted to [0, ActQMax].
type QuantParams struct {
	Scale float32
	Zero  uint8
}

// ActQMax is the top of the activation quantized range. 127 rather than
// 255: the calibrated parameters, and with them every int8 output and
// the region_int8 digest, depend on it (see the package comment).
const ActQMax = 127

// WeightQMax is the symmetric weight bound; -128 is excluded so
// |product| ≤ 127·127 holds with the activation range above.
const WeightQMax = 127

// Quantize maps one real value into the activation range.
func (p QuantParams) Quantize(x float32) uint8 {
	if x != x { // NaN represents as 0.0, i.e. the zero point
		return p.Zero
	}
	q := math.RoundToEven(float64(x)/float64(p.Scale)) + float64(p.Zero)
	if q <= 0 {
		return 0
	}
	if q >= ActQMax {
		return ActQMax
	}
	return uint8(q)
}

// Dequantize maps a quantized activation back to its real value.
func (p QuantParams) Dequantize(q uint8) float32 {
	return p.Scale * float32(int32(q)-int32(p.Zero))
}

// QuantizeSlice quantizes src into dst. Lengths must match exactly —
// a longer dst almost always means the caller sized the buffer for the
// wrong tensor, so the mismatch panics instead of being silently
// resliced.
//
// For the calibrated scales the int8 path produces (normal float32,
// reciprocal representable as a normal float32) the division is
// computed as a float32 multiply by the precomputed reciprocal with
// round-to-nearest-even to integer — the vectorizable form, run by the
// AVX2 kernel where available and by its bit-identical portable twin
// everywhere else. On inputs within half an ulp of a rounding boundary
// the reciprocal-multiply can land on the other side of the boundary
// than the exact division, moving the result by at most one quantized
// step — bounded by TestQuantizeSliceFastVsExactTolerance, covered
// end-to-end by the accuracy-delta gate, and documented in DESIGN §17.
// Degenerate scales (zero range ⇒ Scale 1 is still normal; underflowed
// envelopes ⇒ SmallestNonzeroFloat32, whose reciprocal overflows) fall
// back to the exact float64 path, so no scale produces garbage.
func (p QuantParams) QuantizeSlice(dst []uint8, src []float32) {
	p.quantizeSliceScoped(nil, dst, src)
}

// quantizeSliceScoped is QuantizeSlice with a profile-attribution
// scope; the int8 infer path threads the workspace's scope through.
func (p QuantParams) quantizeSliceScoped(sc *ProfileScope, dst []uint8, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: QuantizeSlice dst length %d != src length %d", len(dst), len(src)))
	}
	on, t0 := profStart()
	if rcp, ok := quantRecip(p.Scale); ok {
		quantizeSliceFast(dst, src, rcp, p.Zero)
	} else {
		p.quantizeSliceExact(dst, src)
	}
	profEnd(on, sc, profQuantize, t0)
}

// quantizeSliceExact is the historic scalar path: exact float64
// division, round-to-nearest-even, saturate. It is the semantic
// reference the fast path is tolerance-gated against, and the fallback
// for scales outside the fast path's contract.
func (p QuantParams) quantizeSliceExact(dst []uint8, src []float32) {
	scale, zero := float64(p.Scale), float64(p.Zero)
	for i, x := range src {
		if x != x {
			dst[i] = p.Zero
			continue
		}
		q := math.RoundToEven(float64(x)/scale) + zero
		switch {
		case q <= 0:
			dst[i] = 0
		case q >= ActQMax:
			dst[i] = ActQMax
		default:
			dst[i] = uint8(q)
		}
	}
}

// QuantRange is the calibration range reducer: it folds observed
// activation values into a [Min, Max] envelope, ignoring non-finite
// values (an Inf in a calibration batch must not blow the scale up to
// infinity, and NaN carries no range information at all).
type QuantRange struct {
	Min, Max float32
	seen     bool
}

// Observe folds one value into the range.
func (r *QuantRange) Observe(v float32) {
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return
	}
	if !r.seen {
		r.Min, r.Max, r.seen = v, v, true
		return
	}
	if v < r.Min {
		r.Min = v
	}
	if v > r.Max {
		r.Max = v
	}
}

// ObserveSlice folds every value of s into the range.
func (r *QuantRange) ObserveSlice(s []float32) {
	for _, v := range s {
		r.Observe(v)
	}
}

// Observed reports whether any finite value has been folded in.
func (r *QuantRange) Observed() bool { return r.seen }

// Params converts the calibrated envelope into activation quantization
// parameters. The envelope is first widened to include 0 so the real
// value 0.0 — convolution padding, ReLU output — is exactly
// representable (it maps to the zero point with no rounding error). A
// degenerate envelope (nothing observed, or all zeros) yields the
// identity-ish {Scale: 1, Zero: 0} so downstream arithmetic stays
// finite.
func (r *QuantRange) Params() QuantParams {
	if !r.seen {
		return QuantParams{Scale: 1}
	}
	lo := math.Min(float64(r.Min), 0)
	hi := math.Max(float64(r.Max), 0)
	if hi == lo {
		return QuantParams{Scale: 1}
	}
	scale := float32((hi - lo) / ActQMax)
	if !(scale > 0) || math.IsInf(float64(scale), 0) {
		// Underflow to 0 (sub-denormal range) — pick the smallest
		// positive value so division keeps producing finite, clampable
		// results.
		scale = math.SmallestNonzeroFloat32
	}
	zp := math.RoundToEven(-lo / float64(scale))
	if zp < 0 {
		zp = 0
	}
	if zp > ActQMax {
		zp = ActQMax
	}
	return QuantParams{Scale: scale, Zero: uint8(zp)}
}

// QuantizeWeightsPerChannel quantizes a [m, k] weight matrix with one
// symmetric scale per output channel (row). A zero-range channel (all
// zeros, or all non-finite) gets scale 1 and all-zero quantized weights.
func QuantizeWeightsPerChannel(w []float32, m, k int) (q []int8, scales []float32) {
	q = make([]int8, m*k)
	scales = make([]float32, m)
	for r := 0; r < m; r++ {
		row := w[r*k : r*k+k]
		amax := 0.0
		for _, v := range row {
			a := math.Abs(float64(v))
			if !math.IsInf(a, 0) && a == a && a > amax {
				amax = a
			}
		}
		scale := amax / WeightQMax
		if !(scale > 0) {
			scales[r] = 1
			continue // quantized row stays all-zero
		}
		scales[r] = float32(scale)
		qrow := q[r*k : r*k+k]
		for i, v := range row {
			if v != v {
				continue // NaN → 0
			}
			s := math.RoundToEven(float64(v) / float64(scales[r]))
			switch {
			case s <= -WeightQMax:
				qrow[i] = -WeightQMax
			case s >= WeightQMax:
				qrow[i] = WeightQMax
			default:
				qrow[i] = int8(s)
			}
		}
	}
	return q, scales
}
