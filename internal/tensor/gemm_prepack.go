package tensor

import "fmt"

// Prepacked B operands for the packed GEMM. A weight matrix that is
// multiplied on the right in every inference call (Dense layers, the
// refinement heads) pays the B-panel packing of gemm_packed.go on each
// call even though the panel bytes never change. PackB performs that
// packing once; GemmPreB then runs the per-call driver,
// gemmPackedScoped, with a bSource that reads the stored panels in place
// instead of packing them.
//
// Bit-identity contract: GemmPreB(…, pb, …) produces exactly the bits
// Gemm(…, b, …) produces for every shape — the stored panels are built
// by the same bSource.pack the per-call path runs (same zero padding,
// same tail handling), the driver and tile sweep are the same code, and
// the routing decision (gemmUsesPacked) is the same shape-only test,
// with products routed to the row kernel reading the retained raw
// matrix. Swapping Gemm for GemmPreB can therefore never change
// results, only packing traffic — pinned by TestGemmPreBMatchesGemm.
//
// Lifecycle: a PackedB is a derived view of the matrix it was built
// from. Callers must rebuild it after the weights change; the raw slice
// is retained by reference, so a stale PackedB is one whose panels
// disagree with raw. nn.Dense owns that lifecycle for layer weights
// (packs are invalidated by Backward and rebuilt at every weight
// mutation point — see DESIGN §17). A PackedB holds one panel set, laid
// out for the kernel active at PackB, and is never written after it:
// GemmPreB under any other kernel packs B per call exactly as Gemm does,
// so a kernel swap needs no rebuild, and any number of goroutines may
// share one PackedB.
type PackedB struct {
	trans  bool
	k, n   int
	raw    []float32
	kr     *gemmKernel // the kernel panels is laid out for
	panels []float32
}

// PackB packs op(B) — b stored k×n, or n×k when trans — for reuse
// across GemmPreB calls, in the panel geometry of the active kernel.
func PackB(trans bool, k, n int, b []float32) *PackedB {
	if len(b) < k*n {
		panic(fmt.Sprintf("tensor: PackB matrix has %d elements, need %d", len(b), k*n))
	}
	pb := &PackedB{trans: trans, k: k, n: n, raw: b, kr: gemmKernels.active.Load()}
	pb.panels = pb.packFor(pb.kr)
	return pb
}

// packFor lays op(B) out in kr's panel geometry, column block by column
// block: chunk (blk, kb) holds the nPanels(blk) panels bSource.pack
// produces for that block pair, each panel kr.kc·kr.nr floats (rows
// beyond a tail k-block stay zero and are never read — the micro-kernel
// sweeps only kc steps). Each chunk is exactly what the per-call sweep
// packs into its slot buffer, and bSource.panels finds it there.
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
	// Only a packed product under the kernel the panels were laid out for
	// can use them; everything else — degenerate, row-routed, or another
	// kernel's geometry — is exactly Gemm over the retained raw matrix.
	if kr := gemmKernels.active.Load(); kr == pb.kr && alpha != 0 && gemmUsesPacked(m, n, k) {
		if len(c) < m*n {
			panic("tensor: Gemm output buffer too small")
		}
		gemmPackedScoped(kr, sc, transA, m, n, k, alpha, a, bSource{packed: true, data: pb.panels, k: k, n: n}, plainOut(c, n, beta))
		return
	}
	GemmScoped(sc, transA, pb.trans, m, n, k, alpha, a, pb.raw, beta, c)
}
