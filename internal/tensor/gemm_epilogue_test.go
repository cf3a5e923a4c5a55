package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specialFloats are the values the tile-store parity tests plant in A, B
// and C: NaN (two payloads, since an add of two NaNs returns the first
// operand's), ±Inf, −0 and denormals of both signs.
var specialFloats = []float32{
	float32(math.NaN()),
	math.Float32frombits(0xFFC00001),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)),
	math.Float32frombits(1),
	math.Float32frombits(0x807FFFFF),
}

// randSpecialSlice is randSlice with roughly one element in eight
// replaced by a special value.
func randSpecialSlice(rng *rand.Rand, n int) []float32 {
	s := randSlice(rng, n)
	for i := range s {
		if rng.Intn(8) == 0 {
			s[i] = specialFloats[rng.Intn(len(specialFloats))]
		}
	}
	return s
}

// tileEpilogues are the epilogue variants every store path must finish
// identically: none, bias only, activation with a nil bias (which adds
// +0 and so turns −0 into +0), and bias + activation at two slopes.
func tileEpilogues(rng *rand.Rand, m int) []Epilogue {
	bias := New(m)
	fillRand(bias, rng)
	bias.data[0] = float32(math.Copysign(0, -1))
	return []Epilogue{
		{},
		{Bias: bias},
		{Act: true, Slope: 0.1},
		{Bias: bias, Act: true},
		{Bias: bias, Act: true, Slope: 0.25},
	}
}

// TestGemmTileStoreEpilogueParity pins the avx512 kernel's fused tile
// store (gemmMicroStore) bit for bit against the Go per-tile reference —
// the portable FMA micro-kernel, then storeTile — over first,
// accumulating and last k-blocks, beta 0, 1 and 0.5, every epilogue
// variant, special values in A, B and C, and destination layouts whose
// tile columns stay in one item, cross one item boundary (two masked
// segments) or span three items (which must decline to the Go store).
// Every element of C is compared, so a write outside the tile fails too.
func TestGemmTileStoreEpilogueParity(t *testing.T) {
	kr := gemmKernels.lookup("avx512")
	if kr == nil || !archKernelUsable(kr) {
		t.Skip("avx512 kernel unsupported on this CPU; its fused tile store is not exercised")
	}
	const mr, nr = 8, 32
	rng := rand.New(rand.NewSource(61))
	layouts := []struct {
		label     string
		cols, m   int // columns per item, rows (output channels)
		items, i0 int
	}{
		{"plain", 77, 11, 1, 3},
		{"one-item", 32, 8, 3, 0},
		{"7x7 items", 49, 16, 4, 8},
		{"4x4 items", 16, 8, 5, 0},
		{"3-item span", 12, 8, 6, 0},
	}
	for _, lay := range layouts {
		n := lay.items * lay.cols
		for j0 := 0; j0+nr <= n; j0 += 5 {
			for _, kc := range []int{1, 7, kr.kc} {
				pa := randSpecialSlice(rng, kc*mr)
				pb := randSpecialSlice(rng, kc*nr)
				c0 := randSpecialSlice(rng, lay.items*lay.m*lay.cols)
				for _, beta := range []float32{0, 1, 0.5} {
					for _, ep := range tileEpilogues(rng, lay.m) {
						for _, kb := range [][2]bool{{true, true}, {true, false}, {false, false}, {false, true}} {
							first, last := kb[0], kb[1]
							label := fmt.Sprintf("%s j0=%d kc=%d beta=%v ep=%+v first=%v last=%v",
								lay.label, j0, kc, beta, ep, first, last)
							want := append([]float32(nil), c0...)
							got := append([]float32(nil), c0...)
							out := cOut{cols: lay.cols, item: lay.m * lay.cols, beta: beta, ep: ep}

							var acc [gemmMaxTile]float32
							gemmMicroRun(kr.ref, mr, nr, kc, pa, pb, &acc)
							out.data = want
							storeTile(out, lay.i0, j0, mr, nr, nr, &acc, first, last)

							out.data = got
							fused := gemmMicroStore(kr.kind, kc, pa, pb, out, lay.i0, j0, first, last)
							spans := (j0+nr-1)/lay.cols - j0/lay.cols + 1
							if fused != (spans <= 2) {
								t.Fatalf("%s: fused store ran=%v for a tile spanning %d items", label, fused, spans)
							}
							if !fused {
								continue
							}
							assertBitIdentical(t, label, want, got)
						}
					}
				}
			}
		}
	}
}

// TestGemmEpilogueFusedParity checks the whole packed sweep with a tile
// epilogue, for every available kernel, against the pre-fusion
// sequence: the same sweep into a plain C, then the epilogue applied row
// by row. Shapes have ragged m and n edges and several k-blocks, and A,
// B and C carry special values, so full tiles (avx512's vector store),
// partial tiles (the Go store), accumulating k-blocks and every beta
// regime are all in play.
func TestGemmEpilogueFusedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, kr := range availableKernels(t) {
		m, n, k := 2*kr.mr+3, kr.nc+kr.nr+5, 2*kr.kc+7
		a := randSpecialSlice(rng, m*k)
		b := randSpecialSlice(rng, k*n)
		c0 := randSpecialSlice(rng, m*n)
		for _, beta := range []float32{0, 1, 0.5} {
			for _, ep := range tileEpilogues(rng, m) {
				want := append([]float32(nil), c0...)
				gemmPackedWith(kr, false, m, n, k, 1, a, denseB(false, k, n, b), beta, want)
				for r := 0; r < m; r++ {
					ep.apply(want[r*n:(r+1)*n], r)
				}
				got := append([]float32(nil), c0...)
				out := plainOut(got, n, beta)
				out.ep = ep
				gemmPackedScoped(kr, nil, false, m, n, k, 1, a, denseB(false, k, n, b), out)
				assertBitIdentical(t, fmt.Sprintf("%s beta=%v ep=%+v", kr.name, beta, ep), want, got)
			}
		}
	}
}

// refinementConvShapes are the refinement trunk's conv layers (inception
// B then A A on a 7×7 RoI grid, paper §3.3) for input width cin and
// branch width w: 1×1, 3×3 and 3×3 stride 2, on 7×7 and on the 4×4 grid
// module B halves it to.
func refinementConvShapes(cin, w int) []convFusedShape {
	one := ConvOpts{Kernel: 1, Stride: 1, Padding: 0}
	three := ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
	threeS2 := ConvOpts{Kernel: 3, Stride: 2, Padding: 1}
	return []convFusedShape{
		{0, cin, 7, 7, w, one},
		{0, w, 7, 7, w, three},
		{0, w, 7, 7, w, threeS2},
		{0, cin, 7, 7, w, threeS2},
		{0, 3 * w, 4, 4, w, one},
		{0, w, 4, 4, w, three},
		{0, 4 * w, 4, 4, w, three},
	}
}

// TestConvInferBatchedRefinementMatchesMaterialized pins the batched
// fused conv — one packed GEMM with the N items' columns side by side,
// tiles finished straight into [N,OC,OH,OW] — bit for bit against the
// materialized per-item path (lowered columns, one GEMM per item, then
// the epilogue sweep) on the active kernel. It covers the refinement
// shapes of TinyConfig, FastProfile and PaperConfig (refinement input
// width 38, 56 and 256; branch width 8, 12 and 64), the batch sizes of
// one RoI up to past the 32-proposal budget, and 1 and 2 workers.
func TestConvInferBatchedRefinementMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	configs := []struct {
		name   string
		cin, w int
	}{
		{"TinyConfig", 38, 8},
		{"FastProfile", 56, 12},
		{"PaperConfig", 256, 64},
	}
	for _, cfg := range configs {
		for si, sh := range refinementConvShapes(cfg.cin, cfg.w) {
			if !sh.eligible() {
				t.Fatalf("%s refinement shape %+v does not take the packed path per item", cfg.name, sh)
			}
			wgt := New(sh.oc, sh.c, sh.o.Kernel, sh.o.Kernel)
			bias := New(sh.oc)
			fillRand(wgt, rng)
			fillRand(bias, rng)
			ep := Epilogue{Bias: bias, Act: true, Slope: 0.1}
			if si%3 == 2 {
				ep.Bias = nil // activation over a nil bias
			}
			for _, n := range []int{1, 2, 32, 40} {
				x := New(n, sh.c, sh.h, sh.w)
				fillRand(x, rng)
				want := conv2DMaterialized(nil, x, wgt, sh.o, ep)
				for _, workers := range []int{1, 2} {
					got := runAtWorkers(workers, func() *Tensor { return Conv2DInfer(nil, x, wgt, sh.o, ep) })
					assertTensorBits(t, fmt.Sprintf("%s %s N=%d c=%d %dx%d oc=%d opts=%+v workers=%d",
						cfg.name, GemmKernel(), n, sh.c, sh.h, sh.w, sh.oc, sh.o, workers), want, got)
				}
			}
		}
	}
}

// TestConvPackIm2colMatchesDense pins the virtual im2col B packer panel
// for panel against packing the materialized column matrix (each item
// lowered by im2colInto, the items' columns side by side), for every
// kernel's panel geometry. Shapes cover both packer paths — stride-1
// panels inside one output row (including rows exactly NR wide and
// taps clipped on either side) and the gather path (rows and items
// shorter than a panel, strides 2 and 3, padding wider than the
// kernel reach) — over ragged column blocks and k-blocks.
func TestConvPackIm2colMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	shapes := []convFusedShape{
		{1, 3, 64, 64, 0, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{1, 2, 32, 32, 0, ConvOpts{Kernel: 5, Stride: 1, Padding: 2}},
		{2, 4, 8, 16, 0, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{3, 5, 7, 7, 0, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{5, 6, 4, 4, 0, ConvOpts{Kernel: 1, Stride: 1, Padding: 0}},
		{4, 3, 7, 7, 0, ConvOpts{Kernel: 3, Stride: 2, Padding: 1}},
		{1, 2, 29, 23, 0, ConvOpts{Kernel: 3, Stride: 3, Padding: 2}},
		{2, 2, 9, 40, 0, ConvOpts{Kernel: 2, Stride: 1, Padding: 3}},
	}
	for _, kr := range gemmKernels.all {
		for _, sh := range shapes {
			oh, ow := sh.o.OutDim(sh.h), sh.o.OutDim(sh.w)
			kk := sh.c * sh.o.Kernel * sh.o.Kernel
			n := sh.n * oh * ow
			x := randSlice(rng, sh.n*sh.c*sh.h*sh.w)
			cols := make([]float32, kk*n)
			item := make([]float32, kk*oh*ow)
			for i := 0; i < sh.n; i++ {
				im2colInto(x[i*sh.c*sh.h*sh.w:(i+1)*sh.c*sh.h*sh.w], sh.c, sh.h, sh.w, sh.o, item)
				for r := 0; r < kk; r++ {
					copy(cols[r*n+i*oh*ow:r*n+(i+1)*oh*ow], item[r*oh*ow:(r+1)*oh*ow])
				}
			}
			virt := im2colB(x, sh.n, sh.c, sh.h, sh.w, sh.o)
			dense := denseB(false, kk, n, cols)
			got := make([]float32, kr.kc*kr.nc)
			want := make([]float32, kr.kc*kr.nc)
			for jc := 0; jc < n; jc += kr.nc {
				nc := min(kr.nc, n-jc)
				for pc := 0; pc < kk; pc += kr.kc {
					kc := min(kr.kc, kk-pc)
					for _, block := range []struct{ jc, nc, pc, kc int }{
						{jc, nc, pc, kc},
						{jc + nc/3, nc - nc/3, pc + kc/2, kc - kc/2}, // ragged start
					} {
						if block.nc == 0 || block.kc == 0 {
							continue
						}
						virt.pack(kr, got, block.jc, block.nc, block.pc, block.kc)
						dense.pack(kr, want, block.jc, block.nc, block.pc, block.kc)
						panels := (block.nc + kr.nr - 1) / kr.nr
						for np := 0; np < panels; np++ {
							lo := np * kr.kc * kr.nr
							assertBitIdentical(t, fmt.Sprintf("%s %+v block %+v panel %d", kr.name, sh, block, np),
								want[lo:lo+block.kc*kr.nr], got[lo:lo+block.kc*kr.nr])
						}
					}
				}
			}
		}
	}
}
