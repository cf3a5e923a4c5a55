package tensor

import "rhsd/internal/parallel"

// gemmMinChunkFlops is the minimum number of multiply-adds a worker chunk
// should carry: below it goroutine hand-off costs more than the maths, so
// parallel.For degrades to the serial path.
const gemmMinChunkFlops = 1 << 15

// gemmRowsMaxFlops is the multiply-add count above which Gemm always
// runs the packed sweep regardless of the other routing terms: past it
// the SIMD micro-kernel's advantage dwarfs any packing overhead.
// Measured by BenchmarkGemmSmallShapeSweep on the reference host: at
// 2^14 multiply-adds in a skinny-A shape (m4n16k256) the row kernel
// still wins 2× against the per-call packed sweep, while at ~2^15.2
// (m6n196k32) the packed sweep wins 3×, so the unconditional cutoff
// sits at 2^15 — a quarter of the old 2^17 cliff, which routed the CPN
// 1×1 heads at small grids and every refinement-sized product to
// scalar code.
const gemmRowsMaxFlops = 1 << 15

// gemmRowsMinN is the narrowest op(B) the packed sweep accepts: below
// it the NR-wide register tile is mostly padding (the narrowest
// registered kernel is 8 columns wide) and the row kernel is faster
// regardless of the flop count. Like the flop cutoff this is a pure
// shape test, not a kernel property, so routing cannot differ between
// kernels of one rounding family.
const gemmRowsMinN = 8

// Below gemmRowsMaxFlops the winner is decided by m, not by the flop
// count: the per-call packing traffic is k·n + m·k floats ≈ flops/m
// when m ≤ n·k, so wide-A products amortize the pack over m rows while
// skinny-A products never recoup it. The sweep's m-series at n=16
// pins the boundary — at m=4 the row kernel wins at every k up to
// 2^14 flops, at m=6 it still wins (m6n16k128), at m=8 the packed
// sweep wins from ~2^11 flops up (m8n16k32 onward; 2^10, m8n16k8, is
// a wash). Hence: m ≥ 8 products take the packed sweep from 2^10
// flops, everything else falls back to the row kernel until the
// unconditional 2^15 cutoff.
const (
	gemmPackedMinM          = 8
	gemmPackedWideMMinFlops = 1 << 10
)

// gemmUsesPacked is the routing decision shared by Gemm, GemmPreB and
// Conv2DInfer's choice of the fused path: true routes the
// product to the packed cache-blocked sweep, false to the scalar row
// kernel. The decision depends only on the problem shape, never on the
// worker count or the selected kernel, so results stay bit-identical
// across pools and the fma-family kernels keep routing identically.
// The flop estimate is computed in int64 so a huge product can never
// wrap on 32-bit platforms and fall into (or negative-index) the
// scalar path.
func gemmUsesPacked(m, n, k int) bool {
	if n < gemmRowsMinN {
		return false
	}
	flops := int64(m) * int64(n) * int64(k)
	if flops >= gemmRowsMaxFlops {
		return true
	}
	return m >= gemmPackedMinM && flops >= gemmPackedWideMMinFlops
}

// Gemm computes c = alpha·op(a)·op(b) + beta·c where op optionally
// transposes. Dimensions follow BLAS convention: op(a) is m×k, op(b) is
// k×n and c is m×n.
//
// Most products run through the packed cache-blocked sweep
// (gemm_packed.go): A and B are repacked into cache-resident panels and
// swept by the register-blocked micro-kernel of the runtime-selected
// gemmKernel (gemm_kernel.go) — MR×NR register tile and KC/NC cache
// blocking are per-kernel properties (4×8 for go/sse, 6×16 for
// go-fma/avx2, 8×32 for avx512), with NC-wide column blocks fanned out
// over the parallel worker pool. Only genuinely tiny or pathologically
// narrow products (see gemmUsesPacked) fall back to the serial
// unblocked row kernel, where scalar code beats the packing overhead
// and the register tile's padding waste. In both regimes every output
// element is produced by exactly one worker with a fixed k-ascending
// accumulation order determined only by the problem shape, so the
// result is bit-identical for every worker count.
//
// For repeated products against one constant B (layer weights), PackB
// once and call GemmPreB: identical routing and bits, minus the
// per-call B packing (gemm_prepack.go).
//
// Zero entries in a do not short-circuit the update: 0·x follows IEEE
// semantics, so NaN and Inf in b propagate into c (pinned by
// TestGemmZeroTimesNaNPropagates).
func Gemm(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	GemmScoped(nil, transA, transB, m, n, k, alpha, a, b, beta, c)
}

// GemmScoped is Gemm with an explicit profile-attribution scope: stage
// time is added to sc (when profiling is on and sc is non-nil) as well
// as to the global counters. The infer path threads the workspace's
// scope through here; Gemm itself is GemmScoped with a nil scope.
func GemmScoped(sc *ProfileScope, transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	if len(c) < m*n {
		panic("tensor: Gemm output buffer too small")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		// Degenerate product: by BLAS convention alpha==0 (and an empty
		// inner dimension) means op(a)·op(b) is not referenced and only
		// the beta scaling of c remains.
		scaleRows(c, m*n, beta)
		return
	}
	if !gemmUsesPacked(m, n, k) {
		on, t0 := profStart()
		gemmRows(transA, transB, 0, m, m, n, k, alpha, a, b, beta, c)
		profEnd(on, sc, profGemmRows, t0)
		return
	}
	gemmPacked(sc, transA, transB, m, n, k, alpha, a, b, beta, c)
}

// GemmUnblocked is the PR-1 row-parallel triple-loop kernel, kept as the
// reference implementation the packed kernel is validated against in
// tests. Semantics
// match Gemm (including IEEE 0·NaN propagation); only the accumulation
// *grouping* differs, so results agree to rounding, not to the bit.
func GemmUnblocked(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	if len(c) < m*n {
		panic("tensor: Gemm output buffer too small")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		scaleRows(c, m*n, beta)
		return
	}
	// Direct call when serial so no closure is allocated (see gemmPacked).
	if parallel.Workers() == 1 {
		gemmRows(transA, transB, 0, m, m, n, k, alpha, a, b, beta, c)
		return
	}
	parallel.For(m, parallel.GrainFor(n*k, gemmMinChunkFlops), func(i0, i1 int) {
		gemmRows(transA, transB, i0, i1, m, n, k, alpha, a, b, beta, c)
	})
}

// scaleRows applies the beta pre-scaling to the first n elements of c.
func scaleRows(c []float32, n int, beta float32) {
	cseg := c[:n]
	if beta == 0 {
		for i := range cseg {
			cseg[i] = 0
		}
	} else if beta != 1 {
		for i := range cseg {
			cseg[i] *= beta
		}
	}
}

// gemmRows computes output rows [i0, i1) of the full m×n product,
// including the beta pre-scaling of those rows. Each element c[i,j] is
// read and written only by the chunk owning row i.
//
// There is deliberately no `av == 0` fast path: skipping zero entries of
// a would suppress IEEE NaN/Inf propagation from b (0·NaN must be NaN).
func gemmRows(transA, transB bool, i0, i1, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	scaleRows(c[i0*n:], (i1-i0)*n, beta)
	switch {
	case !transA && !transB:
		// c[i,j] += alpha * a[i,p] * b[p,j]; iterate p in the middle so the
		// inner j-loop walks b and c rows contiguously.
		for i := i0; i < i1; i++ {
			arow := a[i*k : i*k+k]
			crow := c[i*n : i*n+n]
			for p := 0; p < k; p++ {
				av := alpha * arow[p]
				brow := b[p*n : p*n+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	case transA && !transB:
		// a is stored k×m: a[p,i]. p stays the outer loop for b-row reuse;
		// restricting i to the chunk keeps per-element accumulation order
		// (ascending p) identical to the serial full-range sweep.
		for p := 0; p < k; p++ {
			arow := a[p*m : p*m+m]
			brow := b[p*n : p*n+n]
			for i := i0; i < i1; i++ {
				av := alpha * arow[i]
				crow := c[i*n : i*n+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	case !transA && transB:
		// b is stored n×k: b[j,p]; dot products of contiguous rows.
		for i := i0; i < i1; i++ {
			arow := a[i*k : i*k+k]
			crow := c[i*n : i*n+n]
			for j := 0; j < n; j++ {
				brow := b[j*k : j*k+k]
				var s float32
				for p, av := range arow {
					s += av * brow[p]
				}
				crow[j] += alpha * s
			}
		}
	default: // transA && transB
		for i := i0; i < i1; i++ {
			crow := c[i*n : i*n+n]
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[p*m+i] * b[j*k+p]
				}
				crow[j] += alpha * s
			}
		}
	}
}
