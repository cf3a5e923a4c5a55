package nn

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"rhsd/internal/parallel"
	"rhsd/internal/tensor"
)

func assertSameTensor(t *testing.T, label string, want, got *tensor.Tensor) {
	t.Helper()
	if len(want.Shape()) != len(got.Shape()) {
		t.Fatalf("%s: shape %v vs %v", label, want.Shape(), got.Shape())
	}
	for i, d := range want.Shape() {
		if got.Shape()[i] != d {
			t.Fatalf("%s: shape %v vs %v", label, want.Shape(), got.Shape())
		}
	}
	for i, v := range want.Data() {
		if math.Float32bits(v) != math.Float32bits(got.Data()[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", label, i, v, got.Data()[i])
		}
	}
}

// TestInferMatchesForward pins the Infer ≡ Forward contract on a stack
// exercising every fused and unfused inference path: conv+leaky-ReLU
// (fused), deconv+ReLU (fused), bare conv, pooling, inception-style
// branch concat, flatten and dense.
func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	branchA := NewSequential(
		NewConv2D("ba", 6, 4, 1, 1, 0, rng),
		NewLeakyReLU(0.05),
	)
	branchB := NewSequential(
		NewConv2D("bb", 6, 5, 3, 1, 1, rng),
		NewReLU(),
	)
	net := NewSequential(
		NewConv2D("c1", 2, 4, 3, 1, 1, rng),
		NewLeakyReLU(0.05),
		NewMaxPool2D(2, 2),
		NewDeconv2D("d1", 4, 6, 2, 2, 0, rng),
		NewReLU(),
		NewConcatBranches(branchA, branchB),
		NewConv2D("c2", 9, 3, 3, 1, 1, rng), // bare conv: unfused epilogue
		NewFlatten(),
		NewDense("fc", 3*8*8, 7, rng),
	)

	x := tensor.New(2, 2, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}

	want := net.Forward(x)
	ws := tensor.NewWorkspace()
	for pass := 0; pass < 2; pass++ { // second pass runs on recycled buffers
		ws.Reset()
		got := net.Infer(x, ws)
		assertSameTensor(t, "sequential infer", want, got)
	}

	// The input must come through untouched (ReLU.Infer copies).
	for i, v := range x.Data() {
		if math.IsNaN(float64(v)) {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

// TestInferSteadyStateAllocs checks the zero-allocation property of the
// layer inference path at the nn level: after a warm-up pass, repeated
// Infer calls over a conv/pool/dense stack allocate nothing at all. All
// kernels call their loop bodies directly when the worker pool is
// serial, so not even parallel.For closure headers are created.
func TestInferSteadyStateAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(9))
	net := NewSequential(
		NewConv2D("c1", 1, 4, 3, 1, 1, rng),
		NewLeakyReLU(0.05),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense("fc", 4*4*4, 3, rng),
	)
	x := tensor.New(1, 1, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	ws := tensor.NewWorkspace()
	net.Infer(x, ws) // warm-up sizes the arena
	allocs := testing.AllocsPerRun(20, func() {
		ws.Reset()
		net.Infer(x, ws)
	})
	if allocs > 0 {
		t.Errorf("steady-state Infer allocated %.0f times per run, want 0", allocs)
	}
}

// TestInferDecoderReleasesColumns guards the column-buffer release on a
// decoder-shaped stack (three 3×3 deconvs narrowing 20→16→12→8 channels
// at 16×16, the encoder-decoder's 160→128→96→64 at 1/8 width). Each
// deconv hands its column matrix back as soon as it is scattered, so the
// third layer reuses the second's same-size-class columns: the pass
// retains one column buffer fewer than the layers do on their own. The
// stack must still match Forward bit for bit and allocate nothing in
// steady state.
func TestInferDecoderReleasesColumns(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(13))
	const hw = 16 * 16
	chans := []int{20, 16, 12, 8}
	net := NewSequential()
	var decs []*Deconv2D
	for i := 0; i+1 < len(chans); i++ {
		d := NewDeconv2D("dec", chans[i], chans[i+1], 3, 1, 1, rng)
		decs = append(decs, d)
		net.Append(d, NewLeakyReLU(0.05))
	}
	x := tensor.New(1, chans[0], 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}

	want := net.Forward(x)
	ws := tensor.NewWorkspace()
	for pass := 0; pass < 2; pass++ {
		ws.Reset()
		assertSameTensor(t, "decoder infer", want, net.Infer(x, ws))
	}
	stacked := ws.Footprint()

	// Each layer alone retains its output plus its column matrix.
	alone := 0
	in := x
	for _, d := range decs {
		lws := tensor.NewWorkspace()
		d.Infer(in, lws)
		alone += lws.Footprint()
		in = d.Forward(in)
	}
	pow2 := func(n int) int { return 1 << bits.Len(uint(n-1)) }
	col2, col3 := pow2(chans[2]*9*hw), pow2(chans[3]*9*hw)
	if col2 != col3 {
		t.Fatalf("fixture broken: column classes %d and %d differ", col2, col3)
	}
	if stacked != alone-col3 {
		t.Fatalf("decoder footprint %d floats, want %d (layers alone %d minus one %d-float column buffer)",
			stacked, alone-col3, alone, col3)
	}

	allocs := testing.AllocsPerRun(10, func() {
		ws.Reset()
		net.Infer(x, ws)
	})
	if allocs != 0 {
		t.Errorf("steady-state decoder Infer allocated %.0f times per run, want 0", allocs)
	}
}
