package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func fillRand(t *Tensor, rng *rand.Rand) {
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64())
	}
}

func assertTensorBits(t *testing.T, label string, want, got *Tensor) {
	t.Helper()
	ws, gs := want.Shape(), got.Shape()
	if len(ws) != len(gs) {
		t.Fatalf("%s: shape %v vs %v", label, ws, gs)
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("%s: shape %v vs %v", label, ws, gs)
		}
	}
	for i, v := range want.data {
		if math.Float32bits(v) != math.Float32bits(got.data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", label, i, v, got.data[i])
		}
	}
}

// TestConvInferMatchesTraining checks the forward kernels on a workspace
// against the same kernels with a nil workspace — the allocating form
// training's Forward runs — bit for bit, for both a fresh and a recycled
// (dirty) workspace, and the fused epilogue against an unfused
// activation.
func TestConvInferMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := NewWorkspace()
	o := ConvOpts{Kernel: 3, Stride: 2, Padding: 1}
	x := New(2, 3, 9, 11)
	wgt := New(4, 3, 3, 3)
	bias := New(4)
	fillRand(x, rng)
	fillRand(wgt, rng)
	fillRand(bias, rng)

	want := Conv2DInfer(nil, x, wgt, o, Epilogue{Bias: bias})
	for pass := 0; pass < 2; pass++ { // second pass runs on dirty buffers
		ws.Reset()
		got := Conv2DInfer(ws, x, wgt, o, Epilogue{Bias: bias})
		assertTensorBits(t, "conv2d infer", want, got)
	}

	// Fused leaky ReLU = unfused bias-add then activation.
	slope := float32(0.05)
	wantAct := want.Clone()
	for i, v := range wantAct.data {
		if v <= 0 {
			wantAct.data[i] = v * slope
		}
	}
	ws.Reset()
	gotAct := Conv2DInfer(ws, x, wgt, o, Epilogue{Bias: bias, Act: true, Slope: slope})
	assertTensorBits(t, "conv2d fused relu", wantAct, gotAct)

	dwgt := New(3, 5, 3, 3)
	dbias := New(5)
	fillRand(dwgt, rng)
	fillRand(dbias, rng)
	dwant := Deconv2DInfer(nil, x, dwgt, o, Epilogue{Bias: dbias})
	for pass := 0; pass < 2; pass++ {
		ws.Reset()
		dgot := Deconv2DInfer(ws, x, dwgt, o, Epilogue{Bias: dbias})
		assertTensorBits(t, "deconv2d infer", dwant, dgot)
	}

	pwant, _ := MaxPool2D(x, 2, 2)
	ws.Reset()
	pgot := MaxPool2DInfer(ws, x, 2, 2)
	assertTensorBits(t, "maxpool infer", pwant, pgot)

	a := New(1, 2, 4, 4)
	b := New(1, 3, 4, 4)
	fillRand(a, rng)
	fillRand(b, rng)
	cwant := ConcatChannelsInfer(nil, a, b)
	ws.Reset()
	cgot := ConcatChannelsInfer(ws, a, b)
	assertTensorBits(t, "concat infer", cwant, cgot)
}
