package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rhsd/internal/cpu"
)

// Parity suites for the qvnni kernel's vector paths: the AVX-512 im2col
// panel packer (qpackIm2colPanel) against the Go packer, and the fused
// in-kernel store (qgemmMicroStore) against qstoreTile. Both Go paths
// are reached through kr.refTwin(), which keeps qvnni's geometry but
// not its kind, so every comparison is on identical panel layouts.

// qvnniKernel returns the qvnni kernel, skipping when the host cannot
// run it.
func qvnniKernel(t *testing.T) *qgemmKernel {
	t.Helper()
	kr := qgemmKernels.lookup("qvnni")
	if kr == nil || !qarchKernelUsable(kr) {
		t.Skip("qvnni kernel unavailable on this host")
	}
	return kr
}

// TestQGemmIm2colPackerVectorMatchesGo pins the vector packer byte for
// byte against the Go packer over kernels 1, 3 and 5, strides 1 and 2,
// padding 0–2, every border panel, k-row ranges that start mid-window
// and end off a 4-row group, ragged last column blocks and several
// zero points — and checks that the vector path actually ran.
func TestQGemmIm2colPackerVectorMatchesGo(t *testing.T) {
	kr := qvnniKernel(t)
	if !cpu.X86.HasAVX512BW() {
		t.Skip("host lacks AVX512BW; the vector packer never runs")
	}
	twin := kr.refTwin()
	rng := rand.New(rand.NewSource(11))
	type geom struct{ c, h, w int }
	// Output widths of 32, 64 and 96 columns give left, interior and
	// right border panels inside one row; 40 and 70 put panels across
	// rows (Go path) beside row panels, with a ragged last block.
	geoms := []geom{{3, 34, 64}, {2, 13, 96}, {5, 9, 40}, {1, 36, 70}, {4, 66, 33}}
	zps := []uint8{0, 1, 77, 127, 200, 255}
	for _, g := range geoms {
		x := make([]uint8, g.c*g.h*g.w)
		for i := range x {
			x[i] = uint8(rng.Intn(256))
		}
		for _, kern := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for pad := 0; pad <= 2; pad++ {
					o := ConvOpts{Kernel: kern, Stride: stride, Padding: pad}
					if o.OutDim(g.h) < 1 || o.OutDim(g.w) < 1 {
						continue
					}
					zp := zps[(kern+stride+pad)%len(zps)]
					bs := qim2colB(x, g.c, g.h, g.w, o, zp)
					checkQPackerParity(t, kr, twin, bs)
				}
			}
		}
	}
}

// checkQPackerParity compares the two packers on every column block of
// bs for a spread of (pc, kc) k-row ranges, and each vector-packed
// panel on its own against the Go packer's panel.
func checkQPackerParity(t *testing.T, kr, twin *qgemmKernel, bs qbSource) {
	t.Helper()
	nr := kr.nr
	size := kr.kc * kr.nc
	got := make([]uint8, size)
	want := make([]uint8, size)
	ntaps := bs.o.Kernel * bs.o.Kernel
	ranges := [][2]int{{0, bs.k}, {0, 1}, {0, 2}, {1, 3}, {ntaps - 1, 5}, {ntaps + 1, 7}, {2, 13}}
	vectorPanels := 0
	for _, r := range ranges {
		pc, kc := r[0], min(r[1], kr.kc)
		if pc >= bs.k {
			continue
		}
		kc = min(kc, bs.k-pc)
		panelBytes := (kc + 3) / 4 * 4 * nr
		for jc := 0; jc < bs.n; jc += kr.nc {
			nc := min(bs.n-jc, kr.nc)
			for i := range got {
				got[i], want[i] = 0xA5, 0x5A
			}
			bs.pack(kr, got, jc, nc, pc, kc)
			bs.pack(twin, want, jc, nc, pc, kc)
			for np := 0; np < (nc+nr-1)/nr; np++ {
				off := np * kr.kc * nr
				if !bytes.Equal(got[off:off+panelBytes], want[off:off+panelBytes]) {
					t.Fatalf("opts %+v zp %d c=%d h=%d w=%d: block jc=%d pc=%d kc=%d panel %d differs\n got %v\nwant %v",
						bs.o, bs.zero, bs.c, bs.h, bs.w, jc, pc, kc, np,
						got[off:off+panelBytes], want[off:off+panelBytes])
				}
				j0 := jc + np*nr
				if min(jc+nc-j0, nr) < nr {
					continue
				}
				one := make([]uint8, panelBytes)
				if qpackIm2colPanel(kr.kind, bs, one, j0, pc, kc) {
					vectorPanels++
					if !bytes.Equal(one, want[off:off+panelBytes]) {
						t.Fatalf("opts %+v: panel j0=%d pc=%d kc=%d differs from the Go packer", bs.o, j0, pc, kc)
					}
				}
			}
		}
	}
	if bs.ow >= nr && vectorPanels == 0 {
		t.Fatalf("opts %+v c=%d h=%d w=%d: no panel took the vector packer", bs.o, bs.c, bs.h, bs.w)
	}
}

// TestQGemmFusedStoreMatchesRefTwin pins the qvnni in-kernel store bit
// for bit against qstoreTile on dense and im2col B sources, over 1, 2
// and 3 k-blocks, nil and set bias, activation on and off with a
// negative slope, negative, infinite and NaN scales and biases (NaNs
// with distinct payloads, so the operand order of a two-NaN add shows),
// and corrections that put acc − corr at the int32 limits.
func TestQGemmFusedStoreMatchesRefTwin(t *testing.T) {
	kr := qvnniKernel(t)
	twin := kr.refTwin()
	rng := rand.New(rand.NewSource(13))
	nanScale := math.Float32frombits(0x7FC00ABC)
	nanBias := math.Float32frombits(0xFFC00DEF)
	inf := float32(math.Inf(1))
	epilogues := func(m int) []qepilogue {
		var eps []qepilogue
		for variant := 0; variant < 6; variant++ {
			ep := qtestEpilogue(m)
			switch variant {
			case 1:
				ep.act, ep.slope = true, 0.1
			case 2:
				ep.bias = make([]float32, m)
				for r := range ep.bias {
					ep.bias[r] = float32(rng.NormFloat64())
				}
				ep.act, ep.slope = true, -0.25
			case 3:
				// Negative scales, and specials in scale and bias.
				ep.bias = make([]float32, m)
				for r := range ep.bias {
					ep.deqScale[r] = -ep.deqScale[r]
					switch r % 8 {
					case 1:
						ep.deqScale[r] = nanScale
					case 2:
						ep.bias[r] = nanBias
					case 3:
						ep.deqScale[r], ep.bias[r] = nanScale, nanBias
					case 4:
						ep.deqScale[r] = inf
					case 5:
						ep.deqScale[r], ep.bias[r] = -inf, inf
					case 6:
						ep.bias[r] = -inf
					}
				}
			case 4:
				// acc − corr at and across the int32 limits.
				lims := []int32{math.MaxInt32, math.MinInt32, math.MaxInt32 - 1000, math.MinInt32 + 12345, -1 << 30, 1 << 30}
				for r := range ep.corr {
					ep.corr[r] = lims[r%len(lims)]
				}
				ep.act, ep.slope = true, 0.5
			case 5:
				ep.bias = make([]float32, m)
				ep.act, ep.slope = true, float32(math.NaN())
			}
			eps = append(eps, ep)
		}
		return eps
	}
	check := func(label string, m, n, k int, pa []int8, bs qbSource, ep qepilogue) {
		t.Helper()
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		qgemmPackedWith(kr, m, n, k, pa, bs, ep, got)
		qgemmPackedWith(twin, m, n, k, pa, bs, ep, want)
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("%s m=%d n=%d k=%d element %d (row %d): %v (%#x) vs reference %v (%#x)",
					label, m, n, k, i, i/n, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	// Dense B: k spans one, two and three 768-deep blocks; m and n mix
	// full tiles with row and column tails.
	for _, k := range []int{5, 300, kr.kc, kr.kc + 7, 2*kr.kc + 1, 3 * kr.kc} {
		for _, mn := range [][2]int{{8, 32}, {16, 160}, {19, 70}} {
			m, n := mn[0], mn[1]
			aq := make([]int8, m*k)
			b := make([]uint8, k*n)
			fillQTest(aq, b)
			pa := make([]int8, qgemmPackedSize(kr, m, k))
			qpackA(kr, m, k, aq, pa)
			for vi, ep := range epilogues(m) {
				check("dense/"+string(rune('a'+vi)), m, n, k, pa, qdenseB(k, n, b), ep)
			}
		}
	}
	// Im2col B: 3×3 convs whose k = 9c spans one to three blocks.
	for _, c := range []int{3, 100, 200} {
		h, w, oc := 6, 64, 16
		o := ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
		k := c * 9
		x := make([]uint8, c*h*w)
		for i := range x {
			x[i] = uint8(rng.Intn(ActQMax + 1))
		}
		aq := make([]int8, oc*k)
		for i := range aq {
			aq[i] = int8(rng.Intn(255) - 127)
		}
		pa := make([]int8, qgemmPackedSize(kr, oc, k))
		qpackA(kr, oc, k, aq, pa)
		bs := qim2colB(x, c, h, w, o, 9)
		for vi, ep := range epilogues(oc) {
			check("im2col/"+string(rune('a'+vi)), oc, bs.n, k, pa, bs, ep)
		}
	}
}

// TestQConvPaperConfigKernelParity runs QConv2DInfer on every int8 trunk
// conv shape of a 256-px PaperConfig detection pass (stem, backbone,
// encoder and inception convs) under qvnni and under qgo, its portable
// reference, and requires identical bits: the
// vector packer, the fused store and the carry across k-blocks must not
// move any output.
func TestQConvPaperConfigKernelParity(t *testing.T) {
	kr := qvnniKernel(t)
	if testing.Short() {
		t.Skip("portable reference over full PaperConfig conv shapes; skipped in -short")
	}
	shapes := []struct {
		c, h, w, oc int
		o           ConvOpts
	}{
		{2, 256, 256, 32, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{32, 128, 128, 48, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{48, 128, 128, 64, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{64, 64, 64, 96, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{96, 64, 64, 128, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{128, 64, 64, 160, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{64, 64, 64, 64, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{64, 64, 64, 64, ConvOpts{Kernel: 1, Stride: 1, Padding: 0}},
		{64, 64, 64, 64, ConvOpts{Kernel: 3, Stride: 2, Padding: 1}},
		{256, 64, 64, 64, ConvOpts{Kernel: 1, Stride: 1, Padding: 0}},
		{256, 64, 64, 64, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{256, 64, 64, 64, ConvOpts{Kernel: 3, Stride: 2, Padding: 1}},
		{64, 32, 32, 64, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{192, 32, 32, 64, ConvOpts{Kernel: 1, Stride: 1, Padding: 0}},
		{192, 32, 32, 64, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{256, 32, 32, 64, ConvOpts{Kernel: 1, Stride: 1, Padding: 0}},
		{256, 32, 32, 64, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
	}
	orig := QGemmKernel()
	defer SetQGemmKernel(orig)
	rng := rand.New(rand.NewSource(17))
	ws := NewWorkspace()
	for _, sh := range shapes {
		x := New(1, sh.c, sh.h, sh.w)
		wgt := New(sh.oc, sh.c, sh.o.Kernel, sh.o.Kernel)
		bias := New(sh.oc)
		fillRand(x, rng)
		fillRand(wgt, rng)
		fillRand(bias, rng)
		var r QuantRange
		r.ObserveSlice(x.data)
		plan := NewQConvWeights(wgt.data, sh.oc, sh.c*sh.o.Kernel*sh.o.Kernel).Plan(r.Params())
		ep := Epilogue{Bias: bias, Act: true, Slope: 0.1}
		var outs [2][]float32
		for i, name := range []string{kr.name, "qgo"} {
			if _, err := SetQGemmKernel(name); err != nil {
				t.Fatal(err)
			}
			ws.Reset()
			outs[i] = append([]float32(nil), QConv2DInfer(ws, x, plan, sh.o, ep).data...)
		}
		for i := range outs[0] {
			if math.Float32bits(outs[0][i]) != math.Float32bits(outs[1][i]) {
				t.Fatalf("c=%d h=%d w=%d oc=%d %+v: element %d: qvnni %v vs qgo %v",
					sh.c, sh.h, sh.w, sh.oc, sh.o, i, outs[0][i], outs[1][i])
			}
		}
	}
}
