package tensor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// gemmSmallShapes is the routing test matrix: the model's actual
// small-GEMM population (CPN 1×1 heads, refinement FC and its heads)
// plus ragged tails in every dimension and shapes straddling both
// routing boundaries (the flop threshold and the n-floor).
func gemmSmallShapes() []struct{ m, n, k int } {
	return []struct{ m, n, k int }{
		{6, 784, 512},   // CPN cls head: 2·per logits, 28×28 grid, HeadChannels
		{12, 784, 512},  // CPN reg head
		{6, 196, 32},    // tiny-config CPN head, small grid
		{1, 256, 3136},  // refinement FC, one RoI
		{32, 256, 3136}, // refinement FC, batched RoIs
		{1, 2, 256},     // refinement cls head: n below the floor → rows
		{1, 4, 256},     // refinement reg head: n below the floor → rows
		{1, 1, 1},       // degenerate-but-valid
		{2, 8, 16},      // below the flop threshold → rows
		{4, 16, 64},     // skinny A below the flop threshold → rows
		{8, 64, 64},     // exactly at the flop threshold → packed
		{12, 16, 108},   // refinement conv lowering: wide-m term → packed
		{12, 16, 36},    // smallest refinement conv, still wide-m → packed
		{8, 16, 4},      // wide m but under the wide-m flop floor → rows
		{7, 17, 33},     // ragged everywhere
		{5, 9, 129},     // n just past one NR panel on the narrowest kernel
		{13, 31, 7},     // shallow k, ragged m and n
		{3, 8, 171},     // single m-panel, n at the floor
		{61, 33, 192},   // ragged m/n, k exactly one fma-family KC block
		{6, 784, 193},   // k one past a KC block: tail k-block in play
	}
}

// TestGemmSmallShapeRouting pins the routing decision itself: it
// depends only on the shape — never on the kernel geometry or worker
// count, which would break cross-kernel bit-stability — and the n-floor
// keeps NR-padding-dominated shapes on the row kernel.
func TestGemmSmallShapeRouting(t *testing.T) {
	if gemmUsesPacked(1, 2, 256) || gemmUsesPacked(1, 4, 256) {
		t.Error("n below the floor must route to the row kernel")
	}
	if !gemmUsesPacked(6, 784, 512) {
		t.Error("CPN head shape must route to the packed sweep")
	}
	if !gemmUsesPacked(1, 256, 3136) {
		t.Error("refinement FC shape must route to the packed sweep")
	}
	if gemmUsesPacked(2, 8, 16) {
		t.Error("shape below the flop threshold must route to the row kernel")
	}
	if gemmUsesPacked(4, 16, 256) || !gemmUsesPacked(8, 64, 64) {
		t.Errorf("flop threshold boundary moved: 4·16·256 → %v, 8·64·64 → %v",
			gemmUsesPacked(4, 16, 256), gemmUsesPacked(8, 64, 64))
	}
	// The wide-m term: refinement conv lowerings (m=12, n=16) sit far
	// below the unconditional flop cutoff but must reach the packed
	// sweep; skinny-A products of the same flop count must not.
	if !gemmUsesPacked(12, 16, 36) || !gemmUsesPacked(12, 16, 108) {
		t.Error("wide-m refinement conv shape must route to the packed sweep")
	}
	if gemmUsesPacked(6, 16, 128) {
		t.Error("m below gemmPackedMinM must stay on the row kernel under the flop cutoff")
	}
	if gemmUsesPacked(8, 16, 4) || !gemmUsesPacked(8, 16, 32) {
		t.Errorf("wide-m flop floor boundary moved: 8·16·4 → %v, 8·16·32 → %v",
			gemmUsesPacked(8, 16, 4), gemmUsesPacked(8, 16, 32))
	}
	// The flop estimate is computed in int64: dimensions whose product
	// overflows int32 (46341³ ≈ 2^46) must still count as large instead
	// of wrapping negative and falling back to the row kernel.
	if !gemmUsesPacked(46341, 46341, 46341) {
		t.Error("flop estimate overflowed: huge shape routed to the row kernel")
	}
	if !gemmUsesPacked(1<<20, 1<<20, 1<<20) {
		t.Error("flop estimate overflowed at 2^60 flops")
	}
}

// TestGemmSmallShapePackedVsRows cross-checks the two routing targets
// against each other on every registered kernel at every small shape:
// whatever gemmUsesPacked decides, both paths must agree within
// summation-reordering tolerance, so a routing threshold change can
// never change results beyond ulp-level drift.
func TestGemmSmallShapePackedVsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	origKernel := GemmKernel()
	defer SetGemmKernel(origKernel)
	for _, kr := range availableKernels(t) {
		if _, err := SetGemmKernel(kr.name); err != nil {
			t.Fatalf("SetGemmKernel(%q): %v", kr.name, err)
		}
		for _, sh := range gemmSmallShapes() {
			m, n, k := sh.m, sh.n, sh.k
			for _, transA := range []bool{false, true} {
				for _, transB := range []bool{false, true} {
					a := randSlice(rng, m*k)
					b := randSlice(rng, k*n)
					cR := randSlice(rng, m*n)
					cP := append([]float32(nil), cR...)
					alpha, beta := float32(0.75), float32(-0.5)
					gemmRows(transA, transB, 0, m, m, n, k, alpha, a, b, beta, cR)
					gemmPacked(nil, transA, transB, m, n, k, alpha, a, b, beta, cP)
					for i := range cP {
						diff := float64(cP[i] - cR[i])
						if diff < 0 {
							diff = -diff
						}
						if diff > 1e-3 {
							t.Fatalf("%s shape %v transA=%v transB=%v: c[%d] packed %v vs rows %v",
								kr.name, sh, transA, transB, i, cP[i], cR[i])
						}
					}
				}
			}
		}
	}
}

// TestGemmPreBMatchesGemm pins the prepacked-B contract: for every
// registered kernel and every small shape — on both sides of the
// routing threshold, with ragged tails, both B orientations and both A
// orientations — GemmPreB over PackB(b) is bit-identical to Gemm over
// b. Swapping the per-call packer for a prepacked weight can never
// change inference results.
func TestGemmPreBMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	origKernel := GemmKernel()
	defer SetGemmKernel(origKernel)
	for _, kr := range availableKernels(t) {
		if _, err := SetGemmKernel(kr.name); err != nil {
			t.Fatalf("SetGemmKernel(%q): %v", kr.name, err)
		}
		for _, sh := range gemmSmallShapes() {
			m, n, k := sh.m, sh.n, sh.k
			for _, transA := range []bool{false, true} {
				for _, transB := range []bool{false, true} {
					a := randSlice(rng, m*k)
					b := randSlice(rng, k*n)
					c0 := randSlice(rng, m*n)
					want := append([]float32(nil), c0...)
					got := append([]float32(nil), c0...)
					alpha, beta := float32(1.25), float32(0.5)
					Gemm(transA, transB, m, n, k, alpha, a, b, beta, want)
					pb := PackB(transB, k, n, b)
					GemmPreB(transA, m, n, k, alpha, a, pb, beta, got)
					assertBitIdentical(t, fmt.Sprintf("%s shape %v transA=%v transB=%v", kr.name, sh, transA, transB), want, got)
					// Second call reuses the cached panels — still identical.
					got2 := append([]float32(nil), c0...)
					GemmPreB(transA, m, n, k, alpha, a, pb, beta, got2)
					assertBitIdentical(t, fmt.Sprintf("%s shape %v reuse", kr.name, sh), want, got2)
				}
			}
		}
	}
}

// TestGemmPreBAcrossKernelSwitch checks a kernel swap after PackB: a
// PackedB built under one kernel must produce results bit-identical to
// Gemm under every kernel SetGemmKernel switches to (the build-time
// kernel reads the stored panels, the others pack B per call).
func TestGemmPreBAcrossKernelSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	origKernel := GemmKernel()
	defer SetGemmKernel(origKernel)
	kernels := availableKernels(t)
	if len(kernels) < 2 {
		t.Skip("need at least two usable kernels")
	}
	m, n, k := 6, 784, 512
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)

	if _, err := SetGemmKernel(kernels[0].name); err != nil {
		t.Fatal(err)
	}
	pb := PackB(false, k, n, b)
	for _, kr := range kernels {
		if _, err := SetGemmKernel(kr.name); err != nil {
			t.Fatal(err)
		}
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1, a, b, 0, want)
		GemmPreB(false, m, n, k, 1, a, pb, 0, got)
		assertBitIdentical(t, kr.name+" after switch", want, got)
	}
}

// TestGemmPreBSharedAfterKernelSwap runs one PackedB from two goroutines
// after SetGemmKernel has switched away from the kernel it was packed
// for: a PackedB is never written after PackB, so under -race this is
// clean, and each result is bit-equal to Gemm under the new kernel.
func TestGemmPreBSharedAfterKernelSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	origKernel := GemmKernel()
	defer SetGemmKernel(origKernel)
	m, n, k := 8, 96, 96 // past the packed cutoff
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	pb := PackB(false, k, n, b)
	other := ""
	for _, kr := range availableKernels(t) {
		if kr.name != origKernel {
			other = kr.name
			break
		}
	}
	if other == "" {
		t.Skip("need a second usable kernel")
	}
	if _, err := SetGemmKernel(other); err != nil {
		t.Fatal(err)
	}
	want := make([]float32, m*n)
	Gemm(false, false, m, n, k, 1, a, b, 0, want)
	got := [2][]float32{make([]float32, m*n), make([]float32, m*n)}
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(c []float32) {
			defer wg.Done()
			GemmPreB(false, m, n, k, 1, a, pb, 0, c)
		}(got[g])
	}
	wg.Wait()
	for g, c := range got {
		assertBitIdentical(t, fmt.Sprintf("%s goroutine %d", other, g), want, c)
	}
}

// TestGemmPreBParityAcrossWorkerCounts extends the determinism contract
// to the prepacked path: bit-identical at 1 and 8 workers.
func TestGemmPreBParityAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m, n, k := 32, 784, 512 // n spans multiple column blocks on every kernel
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	pb := PackB(false, k, n, b)
	run := func() []float32 {
		c := make([]float32, m*n)
		GemmPreB(false, m, n, k, 1, a, pb, 0, c)
		return c
	}
	serial := runAtWorkers(1, run)
	par := runAtWorkers(8, run)
	assertBitIdentical(t, "prepacked gemm", serial, par)
}

// TestPackBValidates pins the argument contracts.
func TestPackBValidates(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PackB with a short matrix did not panic")
			}
		}()
		PackB(false, 4, 4, make([]float32, 15))
	}()
	pb := PackB(false, 4, 8, make([]float32, 32))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("GemmPreB with mismatched k/n did not panic")
			}
		}()
		GemmPreB(false, 2, 8, 5, 1, make([]float32, 10), pb, 0, make([]float32, 16))
	}()
}

// BenchmarkGemmSmallShapeSweep measures the row kernel, the per-call
// packed sweep and the prepacked sweep at the small-GEMM population, on
// the active kernel. This is the measurement behind the routing
// constants (gemmRowsMaxFlops, gemmRowsMinN) in matmul.go: the
// crossover where the packed sweep overtakes the row kernel sets the
// flop threshold, and the n∈{2,4} head shapes justify the n-floor.
func BenchmarkGemmSmallShapeSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	shapes := []struct{ m, n, k int }{
		{1, 2, 256}, {1, 4, 256}, {1, 8, 256}, // head shapes around the n-floor
		{2, 8, 16}, {4, 16, 64}, {4, 16, 256}, // around the flop threshold
		{12, 16, 36}, {12, 16, 48}, {12, 16, 108}, // refinement conv lowerings
		{8, 16, 128}, {12, 16, 128}, {16, 16, 64}, // m-sweep at constant ~16K flops
		{8, 16, 8}, {8, 16, 32}, {12, 16, 16}, {6, 16, 128}, {6, 16, 48}, // wide-m lower boundary
		{6, 196, 32}, {6, 784, 512}, {12, 784, 512}, // CPN heads
		{1, 256, 3136}, {32, 256, 3136}, // refinement FC
	}
	for _, sh := range shapes {
		m, n, k := sh.m, sh.n, sh.k
		a := randSlice(rng, m*k)
		bm := randSlice(rng, k*n)
		c := make([]float32, m*n)
		name := fmt.Sprintf("m%dn%dk%d", m, n, k)
		b.Run(name+"/rows", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmRows(false, false, 0, m, m, n, k, 1, a, bm, 0, c)
			}
		})
		b.Run(name+"/packed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPacked(nil, false, false, m, n, k, 1, a, bm, 0, c)
			}
		})
		pb := PackB(false, k, n, bm)
		kr := gemmKernels.active.Load()
		b.Run(name+"/prepacked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPackedScoped(kr, nil, false, m, n, k, 1, a, bSource{packed: true, data: pb.panels, k: k, n: n}, plainOut(c, n, 0))
			}
		})
	}
}
