package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestQuantRoundTrip checks that dequantize∘quantize stays within half
// a quantization step for in-range values, and that 0.0 survives the
// round trip exactly (the padding/ReLU invariant).
func TestQuantRoundTrip(t *testing.T) {
	var r QuantRange
	r.Observe(-1.5)
	r.Observe(3.25)
	p := r.Params()
	if p.Scale <= 0 {
		t.Fatalf("non-positive scale %v", p.Scale)
	}
	if got := p.Dequantize(p.Quantize(0)); got != 0 {
		t.Fatalf("0.0 round-trips to %v, want exact 0", got)
	}
	step := float64(p.Scale)
	for i := 0; i <= 1000; i++ {
		x := -1.5 + 4.75*float64(i)/1000
		got := float64(p.Dequantize(p.Quantize(float32(x))))
		if math.Abs(got-x) > step/2+1e-6 {
			t.Fatalf("round-trip of %v = %v, off by %v > step/2 = %v", x, got, math.Abs(got-x), step/2)
		}
	}
}

// TestQuantizeSaturates pins the clamp ends: values beyond the
// calibrated range saturate to 0 / ActQMax instead of wrapping, and
// ±Inf pin to the range ends. NaN maps to the zero point (the
// representation of 0.0).
func TestQuantizeSaturates(t *testing.T) {
	var r QuantRange
	r.Observe(-2)
	r.Observe(2)
	p := r.Params()
	cases := []struct {
		in   float32
		want uint8
	}{
		{-1e30, 0},
		{float32(math.Inf(-1)), 0},
		{1e30, ActQMax},
		{float32(math.Inf(1)), ActQMax},
		{float32(math.NaN()), p.Zero},
		{float32(math.Copysign(0, -1)), p.Zero}, // -0.0 is still 0.0
	}
	for _, c := range cases {
		if got := p.Quantize(c.in); got != c.want {
			t.Errorf("Quantize(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	// Slice path agrees with the scalar path element-wise.
	src := []float32{-1e30, -2, -0.5, 0, 0.5, 2, 1e30,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	dst := make([]uint8, len(src))
	p.QuantizeSlice(dst, src)
	for i, x := range src {
		if dst[i] != p.Quantize(x) {
			t.Errorf("QuantizeSlice[%d] = %d, Quantize(%v) = %d", i, dst[i], x, p.Quantize(x))
		}
	}
}

// TestQuantRangeIgnoresNonFinite checks the calibration reducer drops
// NaN/±Inf instead of poisoning the envelope.
func TestQuantRangeIgnoresNonFinite(t *testing.T) {
	var r QuantRange
	r.ObserveSlice([]float32{
		float32(math.NaN()), float32(math.Inf(1)), 1, -3, float32(math.Inf(-1)), 2,
	})
	if !r.Observed() {
		t.Fatal("finite values not observed")
	}
	if r.Min != -3 || r.Max != 2 {
		t.Fatalf("envelope [%v, %v], want [-3, 2]", r.Min, r.Max)
	}
}

// TestQuantRangeDegenerate checks empty and zero-width envelopes yield
// safe identity-ish params instead of zero or infinite scales.
func TestQuantRangeDegenerate(t *testing.T) {
	var empty QuantRange
	if p := empty.Params(); p.Scale != 1 || p.Zero != 0 {
		t.Fatalf("empty reducer params %+v, want {1 0}", p)
	}
	var zeros QuantRange
	zeros.Observe(0)
	zeros.Observe(0)
	if p := zeros.Params(); p.Scale != 1 || p.Zero != 0 {
		t.Fatalf("all-zero reducer params %+v, want {1 0}", p)
	}
	var nonfinite QuantRange
	nonfinite.Observe(float32(math.NaN()))
	if nonfinite.Observed() {
		t.Fatal("NaN counted as an observation")
	}
	// A tiny sub-denormal envelope must still produce a positive scale.
	var tiny QuantRange
	tiny.Observe(0)
	tiny.Observe(1e-44)
	if p := tiny.Params(); !(p.Scale > 0) {
		t.Fatalf("tiny envelope scale %v, want > 0", p.Scale)
	}
}

// TestQuantizeWeightsPerChannel pins the symmetric weight scheme:
// per-row scales, ±WeightQMax saturation symmetry, zero-range rows, and
// non-finite poisoning.
func TestQuantizeWeightsPerChannel(t *testing.T) {
	w := []float32{
		// row 0: plain values, amax 2
		2, -1, 0.5, -0.25,
		// row 1: all zero (degenerate channel)
		0, 0, 0, 0,
		// row 2: NaN and Inf mixed with finite values
		float32(math.NaN()), float32(math.Inf(1)), -1, 0.5,
		// row 3: negative extreme dominates
		-4, 1, 0, 2,
	}
	q, scales := QuantizeWeightsPerChannel(w, 4, 4)

	if scales[0] != 2.0/WeightQMax {
		t.Errorf("row 0 scale %v, want %v", scales[0], 2.0/WeightQMax)
	}
	if q[0] != WeightQMax {
		t.Errorf("row 0 max quantizes to %d, want %d", q[0], WeightQMax)
	}
	if scales[1] != 1 {
		t.Errorf("zero row scale %v, want 1", scales[1])
	}
	for i := 4; i < 8; i++ {
		if q[i] != 0 {
			t.Errorf("zero row q[%d] = %d, want 0", i, q[i])
		}
	}
	// Inf is excluded from the amax, NaN maps to 0.
	if scales[2] != 1.0/WeightQMax {
		t.Errorf("row 2 scale %v, want %v (finite amax 1)", scales[2], 1.0/WeightQMax)
	}
	if q[8] != 0 {
		t.Errorf("NaN weight quantizes to %d, want 0", q[8])
	}
	if q[9] != WeightQMax {
		t.Errorf("+Inf weight quantizes to %d, want saturation %d", q[9], WeightQMax)
	}
	if q[12] != -WeightQMax {
		t.Errorf("row 3 min quantizes to %d, want %d", q[12], -WeightQMax)
	}
	// Symmetric: no value may reach -128.
	for i, v := range q {
		if v < -WeightQMax || v > WeightQMax {
			t.Errorf("q[%d] = %d outside ±%d", i, v, WeightQMax)
		}
	}
}

// TestQuantActivationDomain pins the 7-bit activation contract: every
// quantized activation byte is ≤ ActQMax. The calibrated parameters,
// and with them every int8 output and the region_int8 digest, depend
// on that cap.
func TestQuantActivationDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var r QuantRange
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64() * 100)
		r.Observe(vals[i])
	}
	p := r.Params()
	q := make([]uint8, len(vals))
	p.QuantizeSlice(q, vals)
	for i, b := range q {
		if b > ActQMax {
			t.Fatalf("quantized byte %d = %d > ActQMax", i, b)
		}
	}
	worst := int32(ActQMax)*int32(WeightQMax) + int32(ActQMax)*int32(WeightQMax)
	if worst > math.MaxInt16 {
		t.Fatalf("pair-sum bound %d overflows int16", worst)
	}
}

// FuzzQuantRangeParams fuzzes the calibration reducer: for any pair of
// observed values the derived params must be finite, positive-scale,
// and quantize every finite input into [0, ActQMax] with 0.0 mapping to
// the zero point exactly.
func FuzzQuantRangeParams(f *testing.F) {
	f.Add(float32(-1), float32(1), float32(0.5))
	f.Add(float32(0), float32(0), float32(0))
	f.Add(float32(math.Inf(-1)), float32(math.NaN()), float32(3))
	f.Add(float32(1e38), float32(-1e38), float32(1e-40))
	f.Add(float32(1e-44), float32(0), float32(1e-44))
	f.Fuzz(func(t *testing.T, a, b, x float32) {
		var r QuantRange
		r.Observe(a)
		r.Observe(b)
		p := r.Params()
		if !(p.Scale > 0) || math.IsInf(float64(p.Scale), 0) {
			t.Fatalf("Observe(%v, %v): scale %v not finite positive", a, b, p.Scale)
		}
		if p.Zero > ActQMax {
			t.Fatalf("Observe(%v, %v): zero point %d out of range", a, b, p.Zero)
		}
		if q := p.Quantize(0); q != p.Zero {
			t.Fatalf("params %+v: Quantize(0) = %d, want zero point %d", p, q, p.Zero)
		}
		q := p.Quantize(x)
		if q > ActQMax {
			t.Fatalf("params %+v: Quantize(%v) = %d out of range", p, x, q)
		}
		d := p.Dequantize(q)
		if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
			t.Fatalf("params %+v: Dequantize(%d) = %v not finite", p, q, d)
		}
	})
}
