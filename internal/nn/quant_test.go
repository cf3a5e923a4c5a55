package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rhsd/internal/tensor"
)

// quantTestNet builds a trunk exercising every construct the quantized
// walk handles: fused conv+ReLU, max pooling, nested Sequential,
// ConcatBranches with conv branches, a strided conv, and a (float32)
// deconv+ReLU pair.
func quantTestNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(
		NewConv2D("q.c1", 2, 8, 3, 1, 1, rng), NewLeakyReLU(0.05),
		NewMaxPool2D(2, 2),
		NewSequential(NewConcatBranches(
			NewSequential(NewConv2D("q.b1", 8, 4, 1, 1, 0, rng), NewLeakyReLU(0.05)),
			NewSequential(NewConv2D("q.b2", 8, 4, 3, 1, 1, rng), NewLeakyReLU(0.05)),
		)),
		NewConv2D("q.c2", 8, 6, 3, 2, 1, rng), NewLeakyReLU(0.05),
		NewDeconv2D("q.d1", 6, 4, 3, 1, 1, rng), NewLeakyReLU(0.05),
	)
}

func quantTestInput(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(1, 2, 16, 16)
	x.RandUniform(rng, 0, 1)
	return x
}

// TestQuantizerUncalibratedMatchesInfer pins the walk structure: with no
// frozen plans every conv runs float32 with the same fused epilogues, so
// the Quantizer's traversal must reproduce Sequential.Infer bit for bit.
func TestQuantizerUncalibratedMatchesInfer(t *testing.T) {
	net := quantTestNet(3)
	x := quantTestInput(4)
	ws := tensor.NewWorkspace()
	want := append([]float32(nil), net.Infer(x, ws).Data()...)

	q := NewQuantizer()
	q.Freeze() // no observations: zero plans, pure float32 walk
	ws2 := tensor.NewWorkspace()
	got := q.Infer(net, x, ws2).Data()
	if len(got) != len(want) {
		t.Fatalf("output size %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("element %d: walk %v vs Infer %v", i, got[i], want[i])
		}
	}
	if q.Calibrated() {
		t.Error("Calibrated() true with zero plans")
	}
}

// TestQuantizerInferCloseToFloat calibrates on the exact input and
// checks the int8 walk tracks the float32 walk within a small relative
// error — and that every conv in the tree actually got a plan.
func TestQuantizerInferCloseToFloat(t *testing.T) {
	net := quantTestNet(5)
	x := quantTestInput(6)
	ws := tensor.NewWorkspace()
	want := append([]float32(nil), net.Infer(x, ws).Data()...)

	q := NewQuantizer()
	q.Observe(net, x, ws)
	q.Freeze()
	if got, wantN := q.NumQuantized(), 4; got != wantN {
		t.Fatalf("NumQuantized = %d, want %d", got, wantN)
	}
	got := q.Infer(net, x, ws).Data()

	var rms, refRMS float64
	for i := range want {
		d := float64(got[i]) - float64(want[i])
		rms += d * d
		refRMS += float64(want[i]) * float64(want[i])
	}
	rms = math.Sqrt(rms / float64(len(want)))
	refRMS = math.Sqrt(refRMS / float64(len(want)))
	if refRMS == 0 {
		t.Fatal("degenerate reference output")
	}
	if rms > 0.05*refRMS {
		t.Fatalf("int8 walk RMSE %v vs reference RMS %v (>5%%)", rms, refRMS)
	}
}

// TestQuantizerObserveMatchesInfer checks the calibration pass computes
// the same values as the plain inference path (the taps are read-only).
func TestQuantizerObserveMatchesInfer(t *testing.T) {
	net := quantTestNet(7)
	x := quantTestInput(8)
	ws := tensor.NewWorkspace()
	want := append([]float32(nil), net.Infer(x, ws).Data()...)
	got := NewQuantizer().Observe(net, x, ws).Data()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("element %d: observe %v vs Infer %v", i, got[i], want[i])
		}
	}
}

// TestQuantizerSignature checks the calibration signature is
// deterministic and sensitive to the calibration data, and that an
// unfrozen quantizer refuses to run int8 inference.
func TestQuantizerSignature(t *testing.T) {
	net := quantTestNet(11)
	ws := tensor.NewWorkspace()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantizer.Infer before Freeze did not panic")
			}
		}()
		q := NewQuantizer()
		q.Observe(net, quantTestInput(20), ws)
		q.Infer(net, quantTestInput(20), ws)
	}()
	sig := func(inputSeed int64) []byte {
		q := NewQuantizer()
		q.Observe(net, quantTestInput(inputSeed), ws)
		q.Freeze()
		var b bytes.Buffer
		q.WriteSignature(&b)
		return b.Bytes()
	}
	a1, a2 := sig(21), sig(21)
	if !bytes.Equal(a1, a2) {
		t.Error("signature not deterministic for equal calibration data")
	}
	if len(a1) == 0 {
		t.Error("empty signature for a calibrated quantizer")
	}
	rng := rand.New(rand.NewSource(22))
	big := tensor.New(1, 2, 16, 16)
	big.RandUniform(rng, 0, 50) // very different activation ranges
	q := NewQuantizer()
	q.Observe(net, big, ws)
	q.Freeze()
	var b bytes.Buffer
	q.WriteSignature(&b)
	if bytes.Equal(a1, b.Bytes()) {
		t.Error("signature identical under different calibration ranges")
	}
}
