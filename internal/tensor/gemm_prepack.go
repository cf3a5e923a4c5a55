package tensor

import (
	"fmt"

	"rhsd/internal/parallel"
)

// Prepacked B operands for the packed GEMM. A weight matrix that is
// multiplied on the right in every inference call (Dense layers, the
// refinement heads) pays the B-panel packing of gemm_packed.go on each
// call even though the panel bytes never change. PackB performs that
// packing once; GemmPreB then runs the identical block sweep over the
// stored panels.
//
// Bit-identity contract: GemmPreB(…, pb, …) produces exactly the bits
// Gemm(…, b, …) produces for every shape — the stored panels are built
// by the same bSource.pack the per-call path runs (same zero padding,
// same tail handling), the tile sweep is the shared
// gemmPackedBlockTiles, and the routing decision (gemmUsesPacked) is
// the same shape-only test, with products routed to the row kernel
// reading the retained raw matrix. Swapping Gemm for GemmPreB can
// therefore never change results, only packing traffic — pinned by
// TestGemmPreBMatchesGemm.
//
// Lifecycle: a PackedB is a derived view of the matrix it was built
// from. Callers must rebuild it after the weights change; the raw slice
// is retained by reference, so a stale PackedB is one whose panels
// disagree with raw. nn.Dense owns that lifecycle for layer weights
// (packs are invalidated by Backward and rebuilt at every weight
// mutation point — see DESIGN §17). Like a Workspace, a PackedB is for
// single-goroutine use: panels for kernels beyond the build-time one
// are added lazily on first use.
type PackedB struct {
	trans bool
	k, n  int
	raw   []float32
	packs map[string][]float32 // kernel name → packed panel data
}

// PackB packs op(B) — b stored k×n, or n×k when trans — for reuse
// across GemmPreB calls. Panels for the currently active kernel are
// built eagerly (the common steady state); other kernels pack lazily on
// first use, so forcing a kernel via RHSD_GEMM_KERNEL or SetGemmKernel
// never needs a rebuild and never pays for the kernels it doesn't run.
func PackB(trans bool, k, n int, b []float32) *PackedB {
	if len(b) < k*n {
		panic(fmt.Sprintf("tensor: PackB matrix has %d elements, need %d", len(b), k*n))
	}
	pb := &PackedB{trans: trans, k: k, n: n, raw: b, packs: make(map[string][]float32)}
	pb.ensure(gemmActive.Load())
	return pb
}

// ensure returns the panel data for kr, packing it on first use.
func (pb *PackedB) ensure(kr *gemmKernel) []float32 {
	if p, ok := pb.packs[kr.name]; ok {
		return p
	}
	p := pb.packFor(kr)
	pb.packs[kr.name] = p
	return p
}

// packFor lays op(B) out in kr's panel geometry, column block by column
// block: chunk (blk, kb) holds the nPanels(blk) panels bSource.pack
// produces for that block pair, each panel kr.kc·kr.nr floats (rows
// beyond a tail k-block stay zero and are never read — the micro-kernel
// sweeps only kc steps). The layout exactly mirrors what the per-call
// sweep packs into its scratch buffer, so gemmPackedBlockTiles consumes
// both identically.
func (pb *PackedB) packFor(kr *gemmKernel) []float32 {
	bs := denseB(pb.trans, pb.k, pb.n, pb.raw)
	kBlocks := (pb.k + kr.kc - 1) / kr.kc
	nBlocks := (pb.n + kr.nc - 1) / kr.nc
	panel := kr.kc * kr.nr
	total := 0
	for blk := 0; blk < nBlocks; blk++ {
		nc := min(kr.nc, pb.n-blk*kr.nc)
		total += (nc + kr.nr - 1) / kr.nr * kBlocks * panel
	}
	out := make([]float32, total)
	off := 0
	for blk := 0; blk < nBlocks; blk++ {
		jc := blk * kr.nc
		nc := min(kr.nc, pb.n-jc)
		nPanels := (nc + kr.nr - 1) / kr.nr
		for kb := 0; kb < kBlocks; kb++ {
			pc := kb * kr.kc
			kc := min(kr.kc, pb.k-pc)
			bs.pack(kr, out[off:], jc, nc, pc, kc)
			off += nPanels * panel
		}
	}
	return out
}

// GemmPreB computes c = alpha·op(a)·op(B) + beta·c against a prepacked
// B (see PackB). Semantics, routing and bits are identical to Gemm with
// the original matrix; only the per-call B packing is skipped.
func GemmPreB(transA bool, m, n, k int, alpha float32, a []float32, pb *PackedB, beta float32, c []float32) {
	GemmPreBScoped(nil, transA, m, n, k, alpha, a, pb, beta, c)
}

// GemmPreBScoped is GemmPreB with an explicit profile-attribution
// scope (see GemmScoped); the nn inference path threads the workspace's
// scope through here.
func GemmPreBScoped(sc *ProfileScope, transA bool, m, n, k int, alpha float32, a []float32, pb *PackedB, beta float32, c []float32) {
	if pb.k != k || pb.n != n {
		panic(fmt.Sprintf("tensor: GemmPreB packed for %dx%d, called with k=%d n=%d", pb.k, pb.n, k, n))
	}
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
	if !gemmUsesPacked(m, n, k) {
		on, t0 := profStart()
		gemmRows(transA, pb.trans, 0, m, m, n, k, alpha, a, pb.raw, beta, c)
		profEnd(on, sc, profGemmRows, t0)
		return
	}
	kr := gemmActive.Load()
	gemmPackedPre(kr, sc, transA, m, n, k, alpha, a, pb.ensure(kr), beta, c)
}

// gemmPackedPre is gemmPackedWith minus the B packing: A is packed per
// call (it changes every call), the stored B panels are indexed by the
// same (column block, k-block) walk the per-call sweep uses.
func gemmPackedPre(kr *gemmKernel, sc *ProfileScope, transA bool, m, n, k int, alpha float32, a []float32, pre []float32, beta float32, c []float32) {
	on, t0 := profStart()
	mPanels := (m + kr.mr - 1) / kr.mr
	kBlocks := (k + kr.kc - 1) / kr.kc
	nBlocks := (n + kr.nc - 1) / kr.nc

	pa := packBufGet(kBlocks * mPanels * kr.kc * kr.mr)
	packA(kr, transA, m, k, alpha, a, pa)

	if parallel.Slots(nBlocks, 1) == 1 {
		// Serial fast path, same closure-avoidance rationale as
		// gemmPackedWith.
		gemmPackedBlocksPre(kr, pre, m, n, k, plainOut(c, n, beta), pa, kBlocks, mPanels, 0, nBlocks)
	} else {
		parallel.ForIndexed(nBlocks, 1, func(_, b0, b1 int) {
			gemmPackedBlocksPre(kr, pre, m, n, k, plainOut(c, n, beta), pa, kBlocks, mPanels, b0, b1)
		})
	}

	packBufPut(pa)
	profEnd(on, sc, profGemmPacked, t0)
}

// gemmPackedBlocksPre sweeps column blocks [b0, b1) over prepacked B
// panels laid out by packFor.
func gemmPackedBlocksPre(kr *gemmKernel, pre []float32, m, n, k int, out cOut, pa []float32, kBlocks, mPanels, b0, b1 int) {
	panel := kr.kc * kr.nr
	fullPanels := kr.nc / kr.nr // nc is a multiple of nr for every kernel
	for blk := b0; blk < b1; blk++ {
		jc := blk * kr.nc
		nc := n - jc
		if nc > kr.nc {
			nc = kr.nc
		}
		nPanels := (nc + kr.nr - 1) / kr.nr
		// Blocks before blk are all full-width, so the chunk offset is
		// plain arithmetic rather than a prefix sum.
		base := blk * fullPanels * kBlocks * panel
		for kb := 0; kb < kBlocks; kb++ {
			pc := kb * kr.kc
			kc := k - pc
			if kc > kr.kc {
				kc = kr.kc
			}
			gemmPackedBlockTiles(kr, m, kc, out, pa, pre[base+kb*nPanels*panel:], kb, kBlocks, mPanels, jc, nc)
		}
	}
}
