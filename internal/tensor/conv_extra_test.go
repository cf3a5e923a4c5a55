package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestConv2DNilBias(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := New(1, 2, 5, 5)
	w := New(3, 2, 3, 3)
	x.RandN(rng, 1)
	w.RandN(rng, 1)
	o := ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
	y := Conv2DInfer(nil, x, w, o, Epilogue{})
	zero := New(3)
	want := Conv2DInfer(nil, x, w, o, Epilogue{Bias: zero})
	for i := range y.Data() {
		if y.Data()[i] != want.Data()[i] {
			t.Fatal("nil bias must equal zero bias")
		}
	}
}

func TestConv2DRejectsMismatchedWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Conv2DInfer(nil, New(1, 3, 4, 4), New(2, 2, 3, 3), ConvOpts{Kernel: 3, Stride: 1, Padding: 1}, Epilogue{})
}

func TestConv2DBatchIndependence(t *testing.T) {
	// Batched convolution equals per-sample convolution.
	rng := rand.New(rand.NewSource(12))
	x := New(3, 2, 6, 6)
	w := New(4, 2, 3, 3)
	b := New(4)
	x.RandN(rng, 1)
	w.RandN(rng, 1)
	b.RandN(rng, 1)
	o := ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
	y := Conv2DInfer(nil, x, w, o, Epilogue{Bias: b})
	for i := 0; i < 3; i++ {
		xi := New(1, 2, 6, 6)
		copy(xi.Data(), x.Data()[i*2*36:(i+1)*2*36])
		yi := Conv2DInfer(nil, xi, w, o, Epilogue{Bias: b})
		for j := range yi.Data() {
			if math.Abs(float64(yi.Data()[j]-y.Data()[i*len(yi.Data())+j])) > 1e-5 {
				t.Fatalf("batch entry %d differs at %d", i, j)
			}
		}
	}
}

func TestConv2DLinearity(t *testing.T) {
	// conv(a*x) = a*conv(x) with zero bias.
	rng := rand.New(rand.NewSource(13))
	x := New(1, 1, 6, 6)
	w := New(2, 1, 3, 3)
	x.RandN(rng, 1)
	w.RandN(rng, 1)
	o := ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
	y1 := Conv2DInfer(nil, x, w, o, Epilogue{})
	x2 := x.Clone()
	x2.Scale(2.5)
	y2 := Conv2DInfer(nil, x2, w, o, Epilogue{})
	for i := range y1.Data() {
		if math.Abs(float64(y2.Data()[i]-2.5*y1.Data()[i])) > 1e-4 {
			t.Fatal("convolution must be linear in the input")
		}
	}
}

func TestConv2DTranslationEquivariance(t *testing.T) {
	// Shifting the input by the stride shifts the (interior of the)
	// output by one cell.
	rng := rand.New(rand.NewSource(14))
	w := New(1, 1, 3, 3)
	w.RandN(rng, 1)
	o := ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
	x := New(1, 1, 10, 10)
	x.Set(1, 0, 0, 4, 4)
	y1 := Conv2DInfer(nil, x, w, o, Epilogue{})
	xs := New(1, 1, 10, 10)
	xs.Set(1, 0, 0, 4, 5)
	y2 := Conv2DInfer(nil, xs, w, o, Epilogue{})
	// Compare interiors offset by one column.
	for yy := 2; yy < 8; yy++ {
		for xx := 2; xx < 7; xx++ {
			if math.Abs(float64(y1.At(0, 0, yy, xx)-y2.At(0, 0, yy, xx+1))) > 1e-6 {
				t.Fatalf("equivariance broken at (%d,%d)", yy, xx)
			}
		}
	}
}

func TestMaxPoolStrideOneOverlapping(t *testing.T) {
	x := FromSlice([]float32{
		1, 5, 2,
		7, 3, 8,
		4, 9, 6,
	}, 1, 1, 3, 3)
	y, _ := MaxPool2D(x, 2, 1)
	want := []float32{7, 8, 9, 9}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("overlapping pool: %v want %v", y.Data(), want)
		}
	}
}

func TestSplitChannelsRejectsBadCounts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitChannels(New(1, 4, 2, 2), 3, 3)
}

func TestGemmTransBothMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// c = aᵀ · bᵀ with a [k,m], b [n,k].
	m, n, k := 3, 4, 5
	a := New(k, m)
	b := New(n, k)
	a.RandN(rng, 1)
	b.RandN(rng, 1)
	c := make([]float32, m*n)
	Gemm(true, true, m, n, k, 1, a.Data(), b.Data(), 0, c)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var want float64
			for p := 0; p < k; p++ {
				want += float64(a.At(p, i)) * float64(b.At(j, p))
			}
			if math.Abs(want-float64(c[i*n+j])) > 1e-4 {
				t.Fatalf("transAB mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestGemmAlphaScaling(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	c := make([]float32, 4)
	Gemm(false, false, 2, 2, 2, 2.5, a.Data(), b.Data(), 0, c)
	want := []float32{2.5, 5, 7.5, 10}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("alpha scaling: %v", c)
		}
	}
}

func TestDeconvStride1KernelFlipRelation(t *testing.T) {
	// For stride 1, deconvolution with weight w equals correlation with
	// the spatially flipped kernel (the conv/deconv duality).
	rng := rand.New(rand.NewSource(16))
	x := New(1, 1, 6, 6)
	x.RandN(rng, 1)
	w := New(1, 1, 3, 3) // [C=1, OC=1, 3, 3]
	w.RandN(rng, 1)
	o := ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
	y := Deconv2DInfer(nil, x, w, o, Epilogue{})
	flipped := New(1, 1, 3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			flipped.Set(w.At(0, 0, 2-i, 2-j), 0, 0, i, j)
		}
	}
	want := Conv2DInfer(nil, x, flipped, o, Epilogue{})
	for i := range y.Data() {
		if math.Abs(float64(y.Data()[i]-want.Data()[i])) > 1e-4 {
			t.Fatalf("deconv/flip-conv duality broken at %d: %v vs %v",
				i, y.Data()[i], want.Data()[i])
		}
	}
}
