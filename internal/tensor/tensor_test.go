package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Size() != 24 {
		t.Fatalf("got rank=%d size=%d", x.Rank(), x.Size())
	}
	if x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad dims %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRoundtrip(t *testing.T) {
	x := New(3, 4, 5)
	x.Set(7.5, 2, 1, 3)
	if x.At(2, 1, 3) != 7.5 {
		t.Fatalf("At/Set mismatch: %v", x.At(2, 1, 3))
	}
	// Row-major offset: ((2*4)+1)*5 + 3 = 48.
	if x.Data()[48] != 7.5 {
		t.Fatalf("expected element at flat index 48, data[48]=%v", x.Data()[48])
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesStorage(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(9, 2, 3)
	if x.At(1, 5) != 9 {
		t.Fatal("Reshape must share storage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := New(4)
	x.Fill(1)
	y := x.Clone()
	y.Fill(2)
	if x.Data()[0] != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{4, 5, 6}, 3)
	x.Add(y)
	if x.Data()[2] != 9 {
		t.Fatalf("Add: %v", x.Data())
	}
	x.Sub(y)
	if x.Data()[0] != 1 {
		t.Fatalf("Sub: %v", x.Data())
	}
	x.Scale(2)
	if x.Data()[1] != 4 {
		t.Fatalf("Scale: %v", x.Data())
	}
	x.AXPY(0.5, y)
	if !almostEq(float64(x.Data()[0]), 4, 1e-6) {
		t.Fatalf("AXPY: %v", x.Data())
	}
}

func TestSumStats(t *testing.T) {
	x := FromSlice([]float32{-3, 1, 2}, 3)
	if x.Sum() != 0 {
		t.Fatalf("Sum: %v", x.Sum())
	}
	if x.SumSquares() != 14 {
		t.Fatalf("SumSquares: %v", x.SumSquares())
	}
	if x.MaxAbs() != 3 {
		t.Fatalf("MaxAbs: %v", x.MaxAbs())
	}
	if x.Dot(x) != 14 {
		t.Fatalf("Dot: %v", x.Dot(x))
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data()[i] != v {
			t.Fatalf("MatMul[%d]=%v want %v", i, c.Data()[i], v)
		}
	}
}

func TestMatMulTransposedVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 5)
	b := New(5, 3)
	a.RandN(rng, 1)
	b.RandN(rng, 1)
	ref := MatMul(a, b)

	// aT stored as [5,4]: transpose manually.
	aT := New(5, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			aT.Set(a.At(i, j), j, i)
		}
	}
	bT := New(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			bT.Set(b.At(i, j), j, i)
		}
	}
	got1 := MatMulTransA(aT, b)
	got2 := MatMulTransB(a, bT)
	for i := range ref.Data() {
		if !almostEq(float64(got1.Data()[i]), float64(ref.Data()[i]), 1e-4) {
			t.Fatalf("TransA mismatch at %d: %v vs %v", i, got1.Data()[i], ref.Data()[i])
		}
		if !almostEq(float64(got2.Data()[i]), float64(ref.Data()[i]), 1e-4) {
			t.Fatalf("TransB mismatch at %d: %v vs %v", i, got2.Data()[i], ref.Data()[i])
		}
	}
}

func TestGemmBetaAccumulate(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	c := []float32{10, 10, 10, 10}
	Gemm(false, false, 2, 2, 2, 1, a.Data(), b.Data(), 1, c)
	want := []float32{11, 12, 13, 14}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("beta accumulate: %v", c)
		}
	}
}

// naiveConv is an O(everything) reference convolution used to validate the
// im2col/GEMM fast path.
func naiveConv(x, w, b *Tensor, o ConvOpts) *Tensor {
	n, c, h, wd := x.Shape()[0], x.Shape()[1], x.Shape()[2], x.Shape()[3]
	oc := w.Shape()[0]
	oh, ow := o.OutDim(h), o.OutDim(wd)
	out := New(n, oc, oh, ow)
	for i := 0; i < n; i++ {
		for f := 0; f < oc; f++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					if b != nil {
						s = b.Data()[f]
					}
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < o.Kernel; ky++ {
							for kx := 0; kx < o.Kernel; kx++ {
								sy := oy*o.Stride + ky - o.Padding
								sx := ox*o.Stride + kx - o.Padding
								if sy < 0 || sy >= h || sx < 0 || sx >= wd {
									continue
								}
								s += x.At(i, ch, sy, sx) * w.At(f, ch, ky, kx)
							}
						}
					}
					out.Set(s, i, f, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, cfg := range []ConvOpts{
		{Kernel: 3, Stride: 1, Padding: 1},
		{Kernel: 3, Stride: 2, Padding: 1},
		{Kernel: 1, Stride: 1, Padding: 0},
		{Kernel: 5, Stride: 1, Padding: 2},
	} {
		x := New(2, 3, 8, 8)
		w := New(4, 3, cfg.Kernel, cfg.Kernel)
		b := New(4)
		x.RandN(rng, 1)
		w.RandN(rng, 1)
		b.RandN(rng, 1)
		got := Conv2DInfer(nil, x, w, cfg, Epilogue{Bias: b})
		want := naiveConv(x, w, b, cfg)
		if !got.SameShape(want) {
			t.Fatalf("%+v: shape %v want %v", cfg, got.Shape(), want.Shape())
		}
		for i := range got.Data() {
			if !almostEq(float64(got.Data()[i]), float64(want.Data()[i]), 1e-3) {
				t.Fatalf("%+v: elem %d: %v want %v", cfg, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> must hold exactly for the pair to be
	// valid adjoints, which is what backprop relies on.
	rng := rand.New(rand.NewSource(3))
	o := ConvOpts{Kernel: 3, Stride: 2, Padding: 1}
	x := New(2, 7, 7)
	x.RandN(rng, 1)
	col := Im2Col(x, o)
	y := New(col.Shape()[0], col.Shape()[1])
	y.RandN(rng, 1)
	lhs := col.Dot(y)
	back := Col2Im(y, 2, 7, 7, o)
	rhs := x.Dot(back)
	if !almostEq(lhs, rhs, 1e-2) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestConv2DBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	o := ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
	x := New(1, 2, 5, 5)
	w := New(3, 2, 3, 3)
	b := New(3)
	x.RandN(rng, 1)
	w.RandN(rng, 1)
	b.RandN(rng, 1)

	loss := func() float64 {
		y := Conv2DInfer(nil, x, w, o, Epilogue{Bias: b})
		var s float64
		for _, v := range y.Data() {
			s += 0.5 * float64(v) * float64(v)
		}
		return s
	}
	y := Conv2DInfer(nil, x, w, o, Epilogue{Bias: b})
	gy := y.Clone() // dL/dy = y for L = 0.5*sum(y^2)
	dw := New(3, 2, 3, 3)
	db := New(3)
	dx := Conv2DBackward(x, w, gy, dw, db, o)

	const eps = 1e-2
	checkGrad := func(name string, param *Tensor, grad *Tensor, indices []int) {
		for _, i := range indices {
			orig := param.Data()[i]
			param.Data()[i] = orig + eps
			lp := loss()
			param.Data()[i] = orig - eps
			lm := loss()
			param.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if !almostEq(num, float64(grad.Data()[i]), 2e-1*(1+math.Abs(num))) {
				t.Fatalf("%s grad[%d]: numerical %v analytic %v", name, i, num, grad.Data()[i])
			}
		}
	}
	checkGrad("x", x, dx, []int{0, 7, 24, 49})
	checkGrad("w", w, dw, []int{0, 5, 17, 53})
	checkGrad("b", b, db, []int{0, 1, 2})
}

func TestDeconv2DShapeAndAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o := ConvOpts{Kernel: 3, Stride: 2, Padding: 1}
	x := New(1, 2, 4, 4)
	w := New(2, 3, 3, 3) // [C, OC, K, K]
	x.RandN(rng, 1)
	w.RandN(rng, 1)
	y := Deconv2DInfer(nil, x, w, o, Epilogue{})
	// OH = (4-1)*2 - 2 + 3 = 7.
	if y.Shape()[1] != 3 || y.Shape()[2] != 7 || y.Shape()[3] != 7 {
		t.Fatalf("Deconv2D shape %v", y.Shape())
	}

	// Deconv with weight w must be the adjoint of Conv with the same
	// geometry: <Deconv(x), z> == <x, Conv(z)> where conv weights are the
	// transposed view [OC, C, K, K] with flipped... — in our formulation,
	// Deconv2D(x, w) = Conv2DBackward-input(w, x), so test against that.
	z := New(1, 3, 7, 7)
	z.RandN(rng, 1)
	lhs := y.Dot(z)
	// Conv z with weights reinterpreted: Conv2D expects [OC=C, IC=OC, K, K].
	wT := New(2, 3, 3, 3)
	copy(wT.Data(), w.Data())
	conv := Conv2DInfer(nil, z, wT.Reshape(2, 3, 3, 3), o, Epilogue{})
	rhs := x.Dot(conv)
	if !almostEq(lhs, rhs, 1e-2*(1+math.Abs(lhs))) {
		t.Fatalf("deconv/conv adjoint violated: %v vs %v", lhs, rhs)
	}
}

func TestDeconv2DBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	o := ConvOpts{Kernel: 3, Stride: 2, Padding: 1}
	x := New(1, 2, 3, 3)
	w := New(2, 2, 3, 3)
	b := New(2)
	x.RandN(rng, 1)
	w.RandN(rng, 1)
	b.RandN(rng, 1)
	loss := func() float64 {
		y := Deconv2DInfer(nil, x, w, o, Epilogue{Bias: b})
		var s float64
		for _, v := range y.Data() {
			s += 0.5 * float64(v) * float64(v)
		}
		return s
	}
	y := Deconv2DInfer(nil, x, w, o, Epilogue{Bias: b})
	dw := New(2, 2, 3, 3)
	db := New(2)
	dx := Deconv2DBackward(x, w, y, dw, db, o)
	const eps = 1e-2
	for _, i := range []int{0, 4, 8, 17} {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := loss()
		x.Data()[i] = orig - eps
		lm := loss()
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if !almostEq(num, float64(dx.Data()[i]), 2e-1*(1+math.Abs(num))) {
			t.Fatalf("deconv dx[%d]: numerical %v analytic %v", i, num, dx.Data()[i])
		}
	}
	for _, i := range []int{0, 9, 20, 35} {
		orig := w.Data()[i]
		w.Data()[i] = orig + eps
		lp := loss()
		w.Data()[i] = orig - eps
		lm := loss()
		w.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if !almostEq(num, float64(dw.Data()[i]), 2e-1*(1+math.Abs(num))) {
			t.Fatalf("deconv dw[%d]: numerical %v analytic %v", i, num, dw.Data()[i])
		}
	}
	_ = db
}

func TestMaxPoolForwardKnown(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y, arg := MaxPool2D(x, 2, 2)
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("pool[%d]=%v want %v", i, y.Data()[i], v)
		}
	}
	dx := MaxPool2DBackward(y, arg, 1, 1, 4, 4, 2, 2)
	// Gradient lands exactly at the max positions.
	if dx.At(0, 0, 1, 1) != 6 || dx.At(0, 0, 3, 3) != 16 {
		t.Fatalf("pool backward wrong: %v", dx.Data())
	}
	if dx.At(0, 0, 0, 0) != 0 {
		t.Fatal("pool backward leaked gradient to non-max position")
	}
}

func TestConcatSplitChannelsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(2, 3, 4, 4)
	b := New(2, 5, 4, 4)
	a.RandN(rng, 1)
	b.RandN(rng, 1)
	cat := ConcatChannelsInfer(nil, a, b)
	if cat.Shape()[1] != 8 {
		t.Fatalf("concat channels %v", cat.Shape())
	}
	parts := SplitChannels(cat, 3, 5)
	for i, v := range a.Data() {
		if parts[0].Data()[i] != v {
			t.Fatal("split part 0 mismatch")
		}
	}
	for i, v := range b.Data() {
		if parts[1].Data()[i] != v {
			t.Fatal("split part 1 mismatch")
		}
	}
}

func TestConcatChannelsOrderIsPreserved(t *testing.T) {
	a := New(1, 1, 1, 1)
	a.Fill(1)
	b := New(1, 2, 1, 1)
	b.Fill(2)
	cat := ConcatChannelsInfer(nil, a, b)
	if cat.At(0, 0, 0, 0) != 1 || cat.At(0, 1, 0, 0) != 2 || cat.At(0, 2, 0, 0) != 2 {
		t.Fatalf("concat order wrong: %v", cat.Data())
	}
}

func TestConvOutDim(t *testing.T) {
	cases := []struct {
		o    ConvOpts
		in   int
		want int
	}{
		{ConvOpts{3, 1, 1}, 224, 224},
		{ConvOpts{3, 2, 1}, 224, 112},
		{ConvOpts{2, 2, 0}, 224, 112},
		{ConvOpts{7, 1, 0}, 7, 1},
	}
	for _, c := range cases {
		if got := c.o.OutDim(c.in); got != c.want {
			t.Fatalf("OutDim(%+v, %d)=%d want %d", c.o, c.in, got, c.want)
		}
	}
}

// Property: Im2Col followed by Col2Im applied to a constant-one column
// counts how many output taps touch each input pixel; every interior pixel
// of a stride-1 padded conv must be touched K*K times.
func TestCol2ImCoverageProperty(t *testing.T) {
	o := ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
	h, w := 6, 6
	col := New(1*3*3, o.OutDim(h)*o.OutDim(w))
	col.Fill(1)
	img := Col2Im(col, 1, h, w, o)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			if img.At(0, y, x) != 9 {
				t.Fatalf("interior (%d,%d) touched %v times, want 9", y, x, img.At(0, y, x))
			}
		}
	}
	if img.At(0, 0, 0) != 4 {
		t.Fatalf("corner touched %v times, want 4", img.At(0, 0, 0))
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A·B)·C ≈ A·(B·C) for random small matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(3, 4)
		b := New(4, 2)
		c := New(2, 5)
		a.RandN(rng, 1)
		b.RandN(rng, 1)
		c.RandN(rng, 1)
		l := MatMul(MatMul(a, b), c)
		r := MatMul(a, MatMul(b, c))
		for i := range l.Data() {
			if !almostEq(float64(l.Data()[i]), float64(r.Data()[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRandNDeterministicUnderSeed(t *testing.T) {
	a := New(16)
	b := New(16)
	a.RandN(rand.New(rand.NewSource(42)), 1)
	b.RandN(rand.New(rand.NewSource(42)), 1)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("RandN must be deterministic for a fixed seed")
		}
	}
}
