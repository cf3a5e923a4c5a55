package tensor

import (
	"math"
	"math/rand"
	"testing"

	"rhsd/internal/parallel"
)

// runAtWorkers executes f under a fixed worker count and returns its
// result, restoring the previous count afterwards.
func runAtWorkers[T any](n int, f func() T) T {
	prev := parallel.SetWorkers(n)
	defer parallel.SetWorkers(prev)
	return f()
}

// assertBitIdentical fails unless the two float32 slices match to the bit
// (NaN-safe via Float32bits).
func assertBitIdentical(t *testing.T, label string, serial, par []float32) {
	t.Helper()
	if len(serial) != len(par) {
		t.Fatalf("%s: length %d (serial) vs %d (parallel)", label, len(serial), len(par))
	}
	for i := range serial {
		if math.Float32bits(serial[i]) != math.Float32bits(par[i]) {
			t.Fatalf("%s: element %d differs: serial %v (%#08x) parallel %v (%#08x)",
				label, i, serial[i], math.Float32bits(serial[i]), par[i], math.Float32bits(par[i]))
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// parityWorkers are the two ends compared everywhere: the serial fallback
// and an oversubscribed pool (8 workers regardless of NumCPU), matching
// RHSD_WORKERS=1 vs RHSD_WORKERS=8.
const (
	parityWorkersSerial   = 1
	parityWorkersParallel = 8
)

func TestGemmParityAcrossWorkerCounts(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},
		{3, 7, 5},    // tiny odd shape
		{17, 13, 9},  // not divisible by 8 anywhere
		{64, 56, 33}, // one axis worker-divisible, others not
		{5, 1, 8},
		{129, 67, 31}, // big enough to cross the parallel cutoff
		{0, 4, 4},     // zero-size edges
		{4, 0, 4},
		{4, 4, 0},
	}
	scalars := []struct{ alpha, beta float32 }{
		{1, 0},
		{0.5, 1},
		{-1.25, 0.75},
	}
	for _, sh := range shapes {
		for _, sc := range scalars {
			for _, transA := range []bool{false, true} {
				for _, transB := range []bool{false, true} {
					rng := rand.New(rand.NewSource(7))
					a := randSlice(rng, sh.m*sh.k)
					b := randSlice(rng, sh.k*sh.n)
					cInit := randSlice(rng, sh.m*sh.n)
					run := func(workers int) []float32 {
						return runAtWorkers(workers, func() []float32 {
							c := append([]float32(nil), cInit...)
							Gemm(transA, transB, sh.m, sh.n, sh.k, sc.alpha, a, b, sc.beta, c)
							return c
						})
					}
					serial := run(parityWorkersSerial)
					par := run(parityWorkersParallel)
					label := "Gemm"
					if transA {
						label += " transA"
					}
					if transB {
						label += " transB"
					}
					assertBitIdentical(t, label, serial, par)
				}
			}
		}
	}
}

func TestConv2DParityAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		n, c, h, w, oc int
		o              ConvOpts
	}{
		{1, 1, 5, 5, 2, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{2, 3, 9, 7, 4, ConvOpts{Kernel: 3, Stride: 2, Padding: 1}}, // odd spatial, batch 2
		{3, 2, 11, 11, 3, ConvOpts{Kernel: 5, Stride: 1, Padding: 2}},
		{7, 5, 13, 9, 6, ConvOpts{Kernel: 3, Stride: 1, Padding: 0}}, // batch not divisible by 8
		{0, 2, 6, 6, 2, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},  // zero batch
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(11))
		x := New(tc.n, tc.c, tc.h, tc.w)
		x.RandN(rng, 1)
		wgt := New(tc.oc, tc.c, tc.o.Kernel, tc.o.Kernel)
		wgt.RandN(rng, 1)
		bias := New(tc.oc)
		bias.RandN(rng, 1)
		run := func(workers int) []float32 {
			return runAtWorkers(workers, func() []float32 {
				return Conv2DInfer(nil, x, wgt, tc.o, Epilogue{Bias: bias}).Data()
			})
		}
		assertBitIdentical(t, "Conv2D", run(parityWorkersSerial), run(parityWorkersParallel))
	}
}

func TestConv2DBackwardParityAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		n, c, h, w, oc int
		o              ConvOpts
	}{
		{1, 2, 7, 7, 3, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{5, 3, 9, 11, 4, ConvOpts{Kernel: 3, Stride: 2, Padding: 1}},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(13))
		x := New(tc.n, tc.c, tc.h, tc.w)
		x.RandN(rng, 1)
		wgt := New(tc.oc, tc.c, tc.o.Kernel, tc.o.Kernel)
		wgt.RandN(rng, 1)
		oh, ow := tc.o.OutDim(tc.h), tc.o.OutDim(tc.w)
		gy := New(tc.n, tc.oc, oh, ow)
		gy.RandN(rng, 1)
		type grads struct{ dx, dw, db []float32 }
		run := func(workers int) grads {
			return runAtWorkers(workers, func() grads {
				dw := New(tc.oc, tc.c, tc.o.Kernel, tc.o.Kernel)
				db := New(tc.oc)
				dx := Conv2DBackward(x, wgt, gy, dw, db, tc.o)
				return grads{dx.Data(), dw.Data(), db.Data()}
			})
		}
		serial, par := run(parityWorkersSerial), run(parityWorkersParallel)
		assertBitIdentical(t, "Conv2DBackward dx", serial.dx, par.dx)
		assertBitIdentical(t, "Conv2DBackward dw", serial.dw, par.dw)
		assertBitIdentical(t, "Conv2DBackward db", serial.db, par.db)
	}
}

func TestDeconv2DParityAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		n, c, h, w, oc int
		o              ConvOpts
	}{
		{1, 2, 5, 5, 3, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{3, 4, 7, 9, 2, ConvOpts{Kernel: 3, Stride: 2, Padding: 1}},
		{0, 2, 4, 4, 2, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}}, // zero batch
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(17))
		x := New(tc.n, tc.c, tc.h, tc.w)
		x.RandN(rng, 1)
		wgt := New(tc.c, tc.oc, tc.o.Kernel, tc.o.Kernel)
		wgt.RandN(rng, 1)
		bias := New(tc.oc)
		bias.RandN(rng, 1)
		run := func(workers int) []float32 {
			return runAtWorkers(workers, func() []float32 {
				return Deconv2DInfer(nil, x, wgt, tc.o, Epilogue{Bias: bias}).Data()
			})
		}
		assertBitIdentical(t, "Deconv2D", run(parityWorkersSerial), run(parityWorkersParallel))
	}
}

func TestDeconv2DBackwardParityAcrossWorkerCounts(t *testing.T) {
	n, c, h, w, oc := 4, 3, 6, 5, 2
	o := ConvOpts{Kernel: 3, Stride: 2, Padding: 1}
	rng := rand.New(rand.NewSource(19))
	x := New(n, c, h, w)
	x.RandN(rng, 1)
	wgt := New(c, oc, o.Kernel, o.Kernel)
	wgt.RandN(rng, 1)
	oh := (h-1)*o.Stride - 2*o.Padding + o.Kernel
	ow := (w-1)*o.Stride - 2*o.Padding + o.Kernel
	gy := New(n, oc, oh, ow)
	gy.RandN(rng, 1)
	type grads struct{ dx, dw, db []float32 }
	run := func(workers int) grads {
		return runAtWorkers(workers, func() grads {
			dw := New(c, oc, o.Kernel, o.Kernel)
			db := New(oc)
			dx := Deconv2DBackward(x, wgt, gy, dw, db, o)
			return grads{dx.Data(), dw.Data(), db.Data()}
		})
	}
	serial, par := run(parityWorkersSerial), run(parityWorkersParallel)
	assertBitIdentical(t, "Deconv2DBackward dx", serial.dx, par.dx)
	assertBitIdentical(t, "Deconv2DBackward dw", serial.dw, par.dw)
	assertBitIdentical(t, "Deconv2DBackward db", serial.db, par.db)
}

func TestMaxPool2DParityAcrossWorkerCounts(t *testing.T) {
	cases := []struct{ n, c, h, w, kernel, stride int }{
		{1, 1, 7, 7, 2, 2},
		{2, 3, 9, 11, 3, 2},
		{5, 7, 8, 8, 2, 2}, // 35 planes, not divisible by 8
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(23))
		x := New(tc.n, tc.c, tc.h, tc.w)
		x.RandN(rng, 1)
		type result struct {
			out []float32
			arg []int32
		}
		run := func(workers int) result {
			return runAtWorkers(workers, func() result {
				out, arg := MaxPool2D(x, tc.kernel, tc.stride)
				return result{out.Data(), arg}
			})
		}
		serial, par := run(parityWorkersSerial), run(parityWorkersParallel)
		assertBitIdentical(t, "MaxPool2D out", serial.out, par.out)
		for i := range serial.arg {
			if serial.arg[i] != par.arg[i] {
				t.Fatalf("MaxPool2D arg %d differs: serial %d parallel %d", i, serial.arg[i], par.arg[i])
			}
		}
	}
}

func TestIm2ColParityAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	x := New(9, 13, 11) // odd channel count vs 8 workers
	x.RandN(rng, 1)
	o := ConvOpts{Kernel: 3, Stride: 2, Padding: 1}
	run := func(workers int) []float32 {
		return runAtWorkers(workers, func() []float32 {
			return Im2Col(x, o).Data()
		})
	}
	assertBitIdentical(t, "Im2Col", run(parityWorkersSerial), run(parityWorkersParallel))
}
