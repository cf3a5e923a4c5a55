package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkGemm times the convolution-shaped product that dominates
// R-HSD inference: [OC, C·K·K] × [C·K·K, OH·OW] at a 56×56 feature map
// (m=64 output channels, k=64·3·3 taps, n=56·56 positions).
func BenchmarkGemm(b *testing.B) {
	const m, k, n = 64, 64 * 3 * 3, 56 * 56
	rng := rand.New(rand.NewSource(1))
	a := randSlice(rng, m*k)
	bb := randSlice(rng, k*n)
	c := make([]float32, m*n)
	b.SetBytes(int64(4 * (m*k + k*n + m*n)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(false, false, m, n, k, 1, a, bb, 0, c)
	}
}

// BenchmarkConv2D times one 3×3 convolution over the stem-resolution
// feature map of a 224×224 region (64 channels at 56×56).
func BenchmarkConv2D(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := New(1, 64, 56, 56)
	x.RandN(rng, 1)
	w := New(64, 64, 3, 3)
	w.RandN(rng, 1)
	bias := New(64)
	bias.RandN(rng, 1)
	o := ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DInfer(nil, x, w, o, Epilogue{Bias: bias})
	}
}

// BenchmarkMaxPool2D times the 2×2/2 pooling of the full-resolution stem
// output for a 224×224 region.
func BenchmarkMaxPool2D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := New(1, 32, 224, 224)
	x.RandN(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxPool2D(x, 2, 2)
	}
}
