package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rhsd/internal/cpu"
)

// Parity suites for the fp32 trunk's vector data movement: the AVX-512
// im2col row-panel packer (packIm2colPanel) against the Go packers, the
// 2×2 inference max-pool (maxPool2x2Vector) against maxPoolPlanes, and
// col2im's run adds (addRunsVector) against addRunsGo. Every comparison
// is bit for bit, on inputs seeded with specialFloats — NaNs of
// distinct payloads, signed zeros, infinities and denormals — and each
// suite checks that the vector path actually ran.

// poolTaps are specialFloats plus the values the max-pool's comparisons
// turn on: +0 beside −0, a signalling NaN, and the −1e30 start with
// values at and below it.
var poolTaps = append([]float32{
	0, math.Float32frombits(0x7F800001), -1e30, -2e30, -math.MaxFloat32, 1, -1,
}, specialFloats...)

// fillGarbage sets every float of s to a NaN no path produces, so a
// float a path fails to write shows up as a mismatch.
func fillGarbage(s []float32) {
	for i := range s {
		s[i] = math.Float32frombits(0x7FBADBAD)
	}
}

// TestConvPackIm2colVectorMatchesGo pins the avx512 kernel's vector
// row-panel packer float for float against the Go packers of the same
// panel geometry (its reference twin) over kernels 1, 3 and 5, strides
// 1 and 2 and padding 0–2: panels clipped on the left and the right,
// rows wholly in the padding, k-row ranges that start mid-window or run
// fewer than 16 rows, and panels of items past the first. It checks
// that the vector packer ran, and that a fused conv on a stride-2 row
// panel shape still equals the materialized one.
func TestConvPackIm2colVectorMatchesGo(t *testing.T) {
	kr := gemmKernels.lookup("avx512")
	if kr == nil || !archKernelUsable(kr) {
		t.Skip("avx512 kernel unavailable on this host")
	}
	twin := kr.refTwin()
	rng := rand.New(rand.NewSource(101))
	type geom struct{ n, c, h, w int }
	// Widths give output rows of one, two and three panels at stride 1
	// and 2; 40 and 70 put rows that are not a multiple of a panel (the
	// gather loop) beside row panels; n = 2 and 3 start panels in later
	// items.
	geoms := []geom{{1, 3, 9, 64}, {2, 2, 7, 96}, {1, 4, 6, 40}, {3, 2, 5, 70}, {1, 2, 5, 130}, {2, 3, 4, 32}}
	for _, g := range geoms {
		x := randSpecialSlice(rng, g.n*g.c*g.h*g.w)
		for _, kern := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for pad := 0; pad <= 2; pad++ {
					o := ConvOpts{Kernel: kern, Stride: stride, Padding: pad}
					if o.OutDim(g.h) < 1 || o.OutDim(g.w) < 1 {
						continue
					}
					checkPackerParity(t, kr, twin, im2colB(x, g.n, g.c, g.h, g.w, o))
				}
			}
		}
	}

	// End to end: a stride-2 conv whose output rows are one panel wide,
	// as in the trunk's inception B modules, over two items.
	orig := GemmKernel()
	defer SetGemmKernel(orig)
	if _, err := SetGemmKernel(kr.name); err != nil {
		t.Fatal(err)
	}
	sh := convFusedShape{2, 8, 64, 64, 24, ConvOpts{Kernel: 3, Stride: 2, Padding: 1}}
	if !sh.eligible() {
		t.Fatalf("shape %+v below the packed cutoff", sh)
	}
	x := New(sh.n, sh.c, sh.h, sh.w)
	wgt := New(sh.oc, sh.c, sh.o.Kernel, sh.o.Kernel)
	bias := New(sh.oc)
	fillRand(x, rng)
	fillRand(wgt, rng)
	fillRand(bias, rng)
	ep := Epilogue{Bias: bias, Act: true, Slope: 0.1}
	want := conv2DMaterialized(nil, x, wgt, sh.o, ep)
	got := Conv2DInfer(nil, x, wgt, sh.o, ep)
	assertTensorBits(t, "stride-2 fused conv", want, got)
}

// checkPackerParity packs every column block of bs with both kernels
// for a spread of (pc, kc) k-row ranges and compares the panels, then
// packs each row panel on its own through packIm2colPanel.
func checkPackerParity(t *testing.T, kr, twin *gemmKernel, bs bSource) {
	t.Helper()
	nr := kr.nr
	size := kr.kc * kr.nc
	got := make([]float32, size)
	want := make([]float32, size)
	ntaps := bs.o.Kernel * bs.o.Kernel
	ranges := [][2]int{{0, bs.k}, {0, 1}, {1, 3}, {ntaps - 1, 5}, {ntaps + 1, 7}, {2, 13}, {bs.k - 2, 2}}
	vectorPanels := 0
	for _, r := range ranges {
		pc, kc := max(r[0], 0), min(r[1], kr.kc)
		if pc >= bs.k || kc <= 0 {
			continue
		}
		kc = min(kc, bs.k-pc)
		for jc := 0; jc < bs.n; jc += kr.nc {
			nc := min(bs.n-jc, kr.nc)
			fillGarbage(got)
			fillGarbage(want)
			bs.pack(kr, got, jc, nc, pc, kc)
			bs.pack(twin, want, jc, nc, pc, kc)
			for np := 0; np < (nc+nr-1)/nr; np++ {
				off := np * kr.kc * nr
				label := fmt.Sprintf("opts %+v n=%d h=%d w=%d: block jc=%d pc=%d kc=%d panel %d",
					bs.o, bs.n/(bs.oh*bs.ow), bs.h, bs.w, jc, pc, kc, np)
				assertBitIdentical(t, label, want[off:off+kc*nr], got[off:off+kc*nr])
				j0 := jc + np*nr
				item := j0 / (bs.oh * bs.ow)
				pix := j0 - item*bs.oh*bs.ow
				oy, ox := pix/bs.ow, pix%bs.ow
				if min(jc+nc-j0, nr) < nr || ox+nr > bs.ow {
					continue
				}
				one := make([]float32, kc*nr)
				fillGarbage(one)
				ty, tx := oy*bs.o.Stride-bs.o.Padding, ox*bs.o.Stride-bs.o.Padding
				if !packIm2colPanel(kr.kind, bs, one, item*bs.plane, ty, tx, pc, kc) {
					t.Fatalf("%s: row panel not packed by the vector packer", label)
				}
				vectorPanels++
				assertBitIdentical(t, label+" (one panel)", want[off:off+kc*nr], one)
			}
		}
	}
	if bs.ow >= nr && vectorPanels == 0 {
		t.Fatalf("opts %+v h=%d w=%d: no row panel reached the vector packer", bs.o, bs.h, bs.w)
	}
}

// TestMaxPoolInferVectorMatchesGo pins the vector 2×2/stride-2 pool bit
// for bit against maxPoolPlanes: taps drawn from NaNs of two payloads,
// both zeros, both infinities, −1e30 and values below it, at widths
// with and without a tail (odd widths and heights drop their last
// column and row). MaxPool2DInfer, which takes the vector path, must
// equal MaxPool2D, whose argmax bookkeeping keeps it on the Go loop.
func TestMaxPoolInferVectorMatchesGo(t *testing.T) {
	if !cpu.X86.AVX512F {
		t.Skip("host lacks AVX-512F; the vector pool never runs")
	}
	rng := rand.New(rand.NewSource(103))
	for _, w := range []int{2, 3, 5, 16, 31, 32, 33, 34, 62, 64, 65, 100} {
		for _, h := range []int{2, 3, 6} {
			const planes = 3
			oh, ow := h/2, w/2
			// Draw every tap from the special set alone, so each case —
			// NaN first or later, +0 then −0 and back — occurs often.
			x := make([]float32, planes*h*w)
			for i := range x {
				x[i] = poolTaps[rng.Intn(len(poolTaps))]
			}
			want := make([]float32, planes*oh*ow)
			got := make([]float32, planes*oh*ow)
			fillGarbage(want)
			fillGarbage(got)
			maxPoolPlanes(x, h, w, 2, 2, want, nil, 0, planes)
			if !maxPool2x2Vector(x, h, w, got, 0, planes) {
				t.Fatal("maxPool2x2Vector did not run on an AVX-512F host")
			}
			assertBitIdentical(t, fmt.Sprintf("pool %dx%d", h, w), want, got)
		}
	}

	// Hand-placed cases: a NaN first and later, ±0 in both orders, and
	// every tap at or below −1e30.
	nan := math.Float32frombits(0x7FC00ABC)
	negZero := float32(math.Copysign(0, -1))
	quads := [][4]float32{
		{nan, 1, 2, 3}, {1, nan, 2, 3}, {-5, 2, nan, nan},
		{0, negZero, negZero, 0}, {negZero, 0, 0, negZero},
		{-1e30, -1e30, -1e30, -1e30}, {-2e30, float32(math.Inf(-1)), -3e30, -1e31},
		{float32(math.Inf(-1)), float32(math.Inf(1)), nan, 0},
	}
	x := New(1, 1, 2, 2*len(quads))
	for q, v := range quads {
		x.Set(v[0], 0, 0, 0, 2*q)
		x.Set(v[1], 0, 0, 0, 2*q+1)
		x.Set(v[2], 0, 0, 1, 2*q)
		x.Set(v[3], 0, 0, 1, 2*q+1)
	}
	ref, _ := MaxPool2D(x, 2, 2)
	assertTensorBits(t, "hand-placed pool", ref, MaxPool2DInfer(nil, x, 2, 2))

	// End to end through the worker pool, batch and channels.
	xb := New(2, 5, 18, 40)
	copy(xb.data, randSpecialSlice(rng, xb.Size()))
	for _, workers := range []int{1, 2} {
		want, _ := MaxPool2D(xb, 2, 2)
		got := runAtWorkers(workers, func() *Tensor { return MaxPool2DInfer(nil, xb, 2, 2) })
		assertTensorBits(t, fmt.Sprintf("MaxPool2DInfer workers=%d", workers), want, got)
	}
}

// TestConvCol2imVectorMatchesGo pins the vector run adds bit for
// bit against addRunsGo — NaNs of two payloads on either side, −0 + −0,
// +0 + −0, Inf + −Inf and denormals — over run lengths with and
// without a tail, and checks that floats between runs are not touched.
// It then checks col2im at stride 1, which adds through them, against a
// per-element reference in the same (ky, kx, oy, ox) order.
func TestConvCol2imVectorMatchesGo(t *testing.T) {
	if !cpu.X86.AVX512F {
		t.Skip("host lacks AVX-512F; the vector run adds never run")
	}
	rng := rand.New(rand.NewSource(107))
	nanA, nanB := math.Float32frombits(0x7FC00ABC), math.Float32frombits(0xFFC00DEF)
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{1, 7, 15, 16, 17, 31, 32, 33, 63, 64, 65} {
		for _, rows := range []int{1, 3} {
			ds, ss := n+5, n+2
			dst := randSpecialSlice(rng, rows*ds)
			src := randSpecialSlice(rng, rows*ss)
			// Fixed pairs at the front, middle and tail of each run.
			for r := 0; r < rows; r++ {
				for _, e := range []int{0, n / 2, n - 1} {
					switch (r + e) % 3 {
					case 0:
						dst[r*ds+e], src[r*ss+e] = nanA, nanB
					case 1:
						dst[r*ds+e], src[r*ss+e] = negZero, negZero
					default:
						dst[r*ds+e], src[r*ss+e] = float32(math.Inf(1)), float32(math.Inf(-1))
					}
				}
			}
			want := append([]float32(nil), dst...)
			addRunsGo(want, src, rows, n, ds, ss)
			if !addRunsVector(dst, src, rows, n, ds, ss) {
				t.Fatal("addRunsVector did not run on an AVX-512F host")
			}
			assertBitIdentical(t, fmt.Sprintf("run adds n=%d rows=%d", n, rows), want, dst)
		}
	}

	for _, g := range []struct{ c, h, w int }{{2, 9, 64}, {3, 7, 33}, {1, 5, 17}} {
		for _, o := range []ConvOpts{{3, 1, 1}, {3, 1, 0}, {5, 1, 2}, {1, 1, 0}, {3, 1, 2}} {
			oh, ow := o.OutDim(g.h), o.OutDim(g.w)
			cd := randSpecialSlice(rng, g.c*o.Kernel*o.Kernel*oh*ow)
			got := make([]float32, g.c*g.h*g.w)
			fillGarbage(got)
			col2imInto(cd, g.c, g.h, g.w, o, got)
			assertBitIdentical(t, fmt.Sprintf("col2im c=%d %dx%d opts %+v", g.c, g.h, g.w, o),
				col2imRef(cd, g.c, g.h, g.w, o), got)
		}
	}
}

// col2imRef scatters a column matrix element by element, in col2im's
// (channel, ky, kx, oy, ox) order.
func col2imRef(cd []float32, c, h, w int, o ConvOpts) []float32 {
	oh, ow := o.OutDim(h), o.OutDim(w)
	xd := make([]float32, c*h*w)
	i := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < o.Kernel; ky++ {
			for kx := 0; kx < o.Kernel; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						sy, sx := oy*o.Stride+ky-o.Padding, ox*o.Stride+kx-o.Padding
						if sy >= 0 && sy < h && sx >= 0 && sx < w {
							xd[(ch*h+sy)*w+sx] += cd[i]
						}
						i++
					}
				}
			}
		}
	}
	return xd
}
