package nn

import (
	"math"
	"math/rand"
	"testing"

	"rhsd/internal/tensor"
)

func TestLeakyReLUSlope(t *testing.T) {
	l := NewLeakyReLU(0.1)
	x := tensor.FromSlice([]float32{-10, 0, 10}, 1, 3)
	y := l.Forward(x)
	want := []float32{-1, 0, 10}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("leaky fwd: %v", y.Data())
		}
	}
	g := tensor.FromSlice([]float32{1, 1, 1}, 1, 3)
	dx := l.Backward(g)
	// Negative side gets slope; zero input is "not > 0" so also slope.
	if dx.Data()[0] != 0.1 || dx.Data()[2] != 1 {
		t.Fatalf("leaky bwd: %v", dx.Data())
	}
}

func TestLeakyReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := NewLeakyReLU(0.05)
	x := tensor.New(2, 6)
	x.RandN(rng, 1)
	gradCheck(t, "leaky", l, x)
}

func TestDenseRejectsWrongWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	l := NewDense("d", 4, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input width")
		}
	}()
	l.Forward(tensor.New(1, 5))
}

func TestConcatBranchesSingleBranchIsIdentityComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	conv := NewConv2D("c", 2, 3, 1, 1, 0, rng)
	cb := NewConcatBranches(conv)
	x := tensor.New(1, 2, 4, 4)
	x.RandN(rng, 1)
	y1 := cb.Forward(x)
	y2 := tensor.Conv2DInfer(nil, x, conv.Weight.W, conv.Opts, tensor.Epilogue{Bias: conv.Bias.W})
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatal("single-branch concat must equal the branch itself")
		}
	}
}

func TestGradAccumulationAcrossBackwardCalls(t *testing.T) {
	// Two backward passes without ZeroGrads must sum gradients — the
	// contract the multi-head training loop relies on.
	rng := rand.New(rand.NewSource(24))
	l := NewDense("d", 3, 2, rng)
	x := tensor.New(1, 3)
	x.RandN(rng, 1)
	g := tensor.New(1, 2)
	g.Fill(1)
	l.Forward(x)
	l.Backward(g)
	once := l.Weight.Grad.Clone()
	l.Forward(x)
	l.Backward(g)
	for i := range once.Data() {
		if math.Abs(float64(l.Weight.Grad.Data()[i]-2*once.Data()[i])) > 1e-5 {
			t.Fatal("gradients must accumulate across Backward calls")
		}
	}
}

func TestSGDLRDecayDisabled(t *testing.T) {
	opt := NewSGD(0.5, 0, 0, 0.1)
	p := newParam("p", 1)
	for i := 0; i < 10; i++ {
		p.Grad.Fill(1)
		opt.Update([]*Param{p})
	}
	if opt.LR != 0.5 {
		t.Fatalf("LR must not decay when DecayEvery=0: %v", opt.LR)
	}
}

func TestSmoothL1NormDividesLoss(t *testing.T) {
	pred := tensor.FromSlice([]float32{2}, 1, 1)
	target := tensor.New(1, 1)
	l1, _ := SmoothL1(pred, target, []float32{1}, 1)
	l2, _ := SmoothL1(pred, target, []float32{1}, 4)
	if math.Abs(l1-4*l2) > 1e-9 {
		t.Fatalf("norm scaling wrong: %v vs %v", l1, l2)
	}
}

func TestSoftmaxCrossEntropyAllIgnored(t *testing.T) {
	x := tensor.New(2, 3)
	loss, grad := SoftmaxCrossEntropy(x, []int{-1, -1})
	if loss != 0 || grad.MaxAbs() != 0 {
		t.Fatal("all-ignored batch must be a no-op")
	}
}

func TestL2PenaltyZeroBeta(t *testing.T) {
	p := newParam("w", 3)
	p.W.Fill(5)
	if L2Penalty([]*Param{p}, 0) != 0 {
		t.Fatal("beta=0 must be free")
	}
	if p.Grad.MaxAbs() != 0 {
		t.Fatal("beta=0 must not touch gradients")
	}
}

func TestDeconvThenConvComposition(t *testing.T) {
	// Sanity: a stride-1 deconv after a stride-1 conv preserves spatial
	// dims (the paper's encoder-decoder contract).
	rng := rand.New(rand.NewSource(25))
	net := NewSequential(
		NewConv2D("e", 1, 3, 3, 1, 1, rng),
		NewDeconv2D("d", 3, 1, 3, 1, 1, rng),
	)
	x := tensor.New(1, 1, 14, 14)
	y := net.Forward(x)
	if y.Dim(2) != 14 || y.Dim(3) != 14 || y.Dim(1) != 1 {
		t.Fatalf("encoder-decoder shape drift: %v", y.Shape())
	}
}
