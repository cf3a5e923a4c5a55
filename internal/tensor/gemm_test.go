package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestGemmZeroTimesNaNPropagates pins the IEEE semantics of zero entries:
// a zero in op(a) multiplied against a NaN or Inf in op(b) must produce
// NaN (0·NaN = NaN, 0·Inf = NaN), so the kernel may not skip zero
// multiplicands. Separately, alpha == 0 (and k == 0) follow the BLAS
// convention: C = beta·C without referencing op(a)·op(b) at all, so NaN
// in the inputs does NOT propagate on that path.
func TestGemmZeroTimesNaNPropagates(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))

	kernels := []struct {
		name string
		run  func(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32)
	}{
		{"Gemm", Gemm},
		{"GemmUnblocked", GemmUnblocked},
	}

	// Both a small shape (serial row kernel) and a shape past the packed
	// cutoff, so the packed path is exercised too.
	shapes := []struct{ m, n, k int }{
		{2, 3, 2},
		{64, 64, 64}, // 64^3 = 262144, comfortably on the packed path
	}

	for _, kr := range kernels {
		for _, sh := range shapes {
			m, n, k := sh.m, sh.n, sh.k
			a := make([]float32, m*k) // all zeros
			b := make([]float32, k*n)
			b[0] = nan
			b[n] = inf // row 1, col 0 (k ≥ 2 everywhere)

			c := make([]float32, m*n)
			kr.run(false, false, m, n, k, 1, a, b, 1, c)
			// c[0][0] = Σ_p 0·b[p][0] includes 0·NaN and 0·Inf → NaN.
			if !math.IsNaN(float64(c[0])) {
				t.Errorf("%s %dx%dx%d: c[0] = %v, want NaN (0·NaN/0·Inf must propagate)", kr.name, m, n, k, c[0])
			}
			// Columns never touching NaN/Inf stay finite.
			if math.IsNaN(float64(c[1])) {
				t.Errorf("%s %dx%dx%d: c[1] = NaN, want finite", kr.name, m, n, k)
			}

			// alpha == 0: pure beta-scale, op(a)·op(b) not referenced.
			c2 := make([]float32, m*n)
			for i := range c2 {
				c2[i] = 2
			}
			kr.run(false, false, m, n, k, 0, a, b, 0.5, c2)
			for i, v := range c2 {
				if v != 1 {
					t.Fatalf("%s %dx%dx%d alpha=0: c[%d] = %v, want 1 (beta·C only)", kr.name, m, n, k, i, v)
				}
			}

			// k == 0: same convention.
			c3 := []float32{4, 4}
			kr.run(false, false, 1, 2, 0, 1, nil, nil, 0.25, c3)
			if c3[0] != 1 || c3[1] != 1 {
				t.Fatalf("%s k=0: c = %v, want [1 1]", kr.name, c3)
			}
		}
	}
}

// TestGemmMicroKernelParity checks that every registered
// architecture-specific micro-kernel is bit-identical to its portable Go
// reference for every depth, including the kc == 0 zero-fill case.
// Unsupported kernels are skipped with a logged reason.
func TestGemmMicroKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range GemmKernels() {
		kr := gemmKernels.lookup(name)
		if !archKernelUsable(kr) {
			t.Logf("kernel %s unsupported on this CPU; skipping", name)
			continue
		}
		for _, kc := range []int{0, 1, 2, 3, 7, 64, 255, 256} {
			pa := randSlice(rng, max(1, kc*kr.mr))
			pb := randSlice(rng, max(1, kc*kr.nr))
			var want, got [gemmMaxTile]float32
			for i := range got {
				got[i] = 999 // ensure the kernel overwrites, not accumulates
				want[i] = 999
			}
			gemmMicroRun(kr.ref, kr.mr, kr.nr, kc, pa, pb, &want)
			gemmMicroRun(kr.kind, kr.mr, kr.nr, kc, pa, pb, &got)
			for i := 0; i < kr.mr*kr.nr; i++ {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("%s kc=%d: acc[%d] = %x (impl) vs %x (ref)", name, kc, i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestGemmPackedMatchesUnblocked cross-checks the packed kernel against
// the unblocked reference within floating-point tolerance. The two group
// additions differently (k-blocks of 256 vs a single running sum), so
// exact equality is not expected — but both must be within a few ulps of
// each other for well-conditioned inputs.
func TestGemmPackedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ m, n, k int }{
		{64, 64, 64},  // just past the packed cutoff
		{129, 67, 31}, // ragged panels in every dimension
		{4, 300, 300}, // single panel row, k > KC
		{70, 9, 520},  // n barely past one NR panel, multiple k-blocks
	}
	for _, sh := range shapes {
		m, n, k := sh.m, sh.n, sh.k
		if !gemmUsesPacked(m, n, k) {
			t.Fatalf("shape %v routes to the row kernel; pick a bigger one", sh)
		}
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				cP := randSlice(rng, m*n)
				cU := append([]float32(nil), cP...)
				alpha, beta := float32(0.75), float32(-0.5)
				Gemm(transA, transB, m, n, k, alpha, a, b, beta, cP)
				GemmUnblocked(transA, transB, m, n, k, alpha, a, b, beta, cU)
				for i := range cP {
					diff := math.Abs(float64(cP[i] - cU[i]))
					// k ≤ 520 partial sums of N(0,1) products: 1e-3
					// absolute slack is orders of magnitude above ulp
					// drift yet catches indexing bugs immediately.
					if diff > 1e-3 {
						t.Fatalf("shape %v transA=%v transB=%v: c[%d] packed %v vs unblocked %v",
							sh, transA, transB, i, cP[i], cU[i])
					}
				}
			}
		}
	}
}

// TestGemmPackedParityAcrossWorkerCounts re-checks the determinism
// contract specifically at packed-path shapes with ragged edges: results
// must be bit-identical at 1 and 8 workers.
func TestGemmPackedParityAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := []struct{ m, n, k int }{
		{64, 64, 64},
		{129, 260, 33}, // n spans three column blocks, ragged everywhere
	}
	for _, sh := range shapes {
		m, n, k := sh.m, sh.n, sh.k
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		c0 := randSlice(rng, m*n)
		run := func() []float32 {
			c := append([]float32(nil), c0...)
			Gemm(false, false, m, n, k, 1, a, b, 0.25, c)
			return c
		}
		serial := runAtWorkers(1, run)
		par := runAtWorkers(8, run)
		assertBitIdentical(t, "packed gemm", serial, par)
	}
}
