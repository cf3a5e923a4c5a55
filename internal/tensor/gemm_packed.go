package tensor

import (
	"sync"

	"rhsd/internal/parallel"
)

// Packed cache-blocked GEMM (BLIS-style). op(A) and op(B) are repacked
// into contiguous panels sized for cache residency and swept by a
// register-blocked micro-kernel whose geometry (MR×NR register tile,
// KC/NC cache blocking) comes from the runtime-selected kernel
// (gemm_kernel.go):
//
//   - A is packed once, alpha folded in, as MR-wide row panels grouped by
//     KC-deep k-blocks. The whole packed A is reused by every column
//     block, so it stays hot in L2/L3 across the sweep.
//   - The n axis is cut into NC-wide column blocks; the blocks fan out
//     over the worker pool and each concurrent worker packs B panels for
//     its current block into a private per-slot buffer (no locking,
//     parallel.ForIndexed provides the slot id).
//   - For each (k-block, column block) the micro-kernel accumulates an
//     MR×NR register tile over the packed panels and the tile is
//     finished in C at once: added in (beta-scaled on the first
//     k-block), and on the last k-block run through the caller's
//     Epilogue. The avx512 kernel does this in vector code on full
//     tiles (gemmMicroStore); every other tile goes through storeTile.
//
// B panels are produced by a bSource, which is either a dense matrix
// (plain Gemm) or a virtual im2col lowering of a batch of images (the
// fused inference-conv path, conv_infer.go) — the panel values are
// identical either way, so fusing changes memory traffic, never
// results. C is addressed through a cOut, which lays the columns of a
// batched conv out item by item straight into its [N,OC,OH,OW] output.
//
// Determinism: the block geometry is fixed per kernel and the k-blocks
// of one output element are always accumulated in ascending order by the
// single worker that owns the element's column block, so the result is
// bit-identical for every worker count. Only the grouping of the k-sum
// differs from the unblocked kernel, so the two agree to rounding.

// packBufPool recycles pack buffers across Gemm calls so steady-state
// inference performs no heap allocations. Buffers are binned by
// power-of-two size class; each class keeps a bounded stack so a burst of
// concurrent training goroutines cannot pin unbounded memory.
var packBufPool struct {
	mu   sync.Mutex
	bins map[int][][]float32
}

const packBufPoolPerClass = 16

func packBufGet(n int) []float32 {
	class := sizeClass(n)
	packBufPool.mu.Lock()
	if packBufPool.bins == nil {
		packBufPool.bins = make(map[int][][]float32)
	}
	bin := packBufPool.bins[class]
	if len(bin) > 0 {
		buf := bin[len(bin)-1]
		packBufPool.bins[class] = bin[:len(bin)-1]
		packBufPool.mu.Unlock()
		return buf[:n]
	}
	packBufPool.mu.Unlock()
	return make([]float32, n, 1<<class)
}

func packBufPut(buf []float32) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	class := sizeClass(len(buf))
	if 1<<class != len(buf) {
		// Foreign capacity (not pool-shaped); binning it would lie about
		// its size class, so drop it for the GC.
		return
	}
	packBufPool.mu.Lock()
	if packBufPool.bins == nil {
		packBufPool.bins = make(map[int][][]float32)
	}
	if len(packBufPool.bins[class]) < packBufPoolPerClass {
		packBufPool.bins[class] = append(packBufPool.bins[class], buf)
	}
	packBufPool.mu.Unlock()
}

// sizeClass returns the exponent of the smallest power of two ≥ n (≥ 64
// elements, so tiny buffers share a bin).
func sizeClass(n int) int {
	class := 6
	for 1<<class < n {
		class++
	}
	return class
}

// bSource describes where B panels come from. It is passed by value
// everywhere (including into the parallel closure) so the serial path
// never heap-allocates: capturing its address would force the whole
// struct onto the heap on every call (escape analysis is
// path-insensitive, see DESIGN §10).
type bSource struct {
	im2col bool
	trans  bool      // dense only: B stored n×k instead of k×n
	data   []float32 // dense matrix, or [items,c,h,w] images for im2col
	k, n   int       // op(B) dimensions
	// im2col fields: op(B)[row, j] = image_i[ch, oy·stride+ky-pad,
	// ox·stride+kx-pad] with row = (ch·K+ky)·K+kx and
	// j = i·oh·ow + oy·ow + ox, zero outside the image — for each item
	// i, exactly the matrix im2colInto materializes, the items' columns
	// side by side, produced panel-by-panel on the fly instead.
	h, w, oh, ow int
	plane        int // floats per item image (c·h·w)
	o            ConvOpts
}

func denseB(trans bool, k, n int, b []float32) bSource {
	return bSource{trans: trans, data: b, k: k, n: n}
}

// im2colB is the virtual im2col lowering of items [c,h,w] images
// stored back to back in x.
func im2colB(x []float32, items, c, h, w int, o ConvOpts) bSource {
	oh, ow := o.OutDim(h), o.OutDim(w)
	return bSource{
		im2col: true,
		data:   x,
		k:      c * o.Kernel * o.Kernel,
		n:      items * oh * ow,
		h:      h, w: w, oh: oh, ow: ow,
		plane: c * h * w,
		o:     o,
	}
}

// cOut is the destination of a packed sweep and how each tile is
// finished there. Element (r, j) of the m×n product lives at
// data[(j/cols)·item + r·cols + j%cols]: a plain row-major C is one
// item of n columns, and a batched conv output [N,OC,OH,OW] is N items
// of OH·OW columns, item = OC·OH·OW floats apart — so the batched GEMM
// writes each item's channel planes in place, with no scratch copy.
// Passed by value for the same escape-analysis reason as bSource.
type cOut struct {
	data []float32
	cols int      // columns per item, which is also the row stride
	item int      // floats from one item's block to the next
	beta float32  // C is beta-scaled before the first k-block's add
	ep   Epilogue // applied to each element after the last k-block's add
}

// plainOut addresses a row-major m×n matrix with no epilogue — the
// Gemm contract.
func plainOut(c []float32, n int, beta float32) cOut {
	return cOut{data: c, cols: n, beta: beta}
}

// pack lays the (pc..pc+kc, jc..jc+nc) block of op(B) out as
// [nPanels][KC·NR] panels: within a panel, element (p, s) holds
// op(B)[pc+p, j0+s]. Columns beyond the block pad with zeros.
func (bs bSource) pack(kr *gemmKernel, pb []float32, jc, nc, pc, kc int) {
	if bs.im2col {
		bs.packIm2col(kr, pb, jc, nc, pc, kc)
		return
	}
	nr, kcStride := kr.nr, kr.kc
	k, n, b := bs.k, bs.n, bs.data
	nPanels := (nc + nr - 1) / nr
	for np := 0; np < nPanels; np++ {
		dst := pb[np*kcStride*nr:]
		j0 := jc + np*nr
		if j0+nr <= jc+nc {
			if bs.trans {
				for p := 0; p < kc; p++ {
					d := dst[p*nr : p*nr+nr]
					for s := range d {
						d[s] = b[(j0+s)*k+pc+p]
					}
				}
			} else {
				for p := 0; p < kc; p++ {
					brow := b[(pc+p)*n+j0:]
					copy(dst[p*nr:p*nr+nr], brow[:nr])
				}
			}
			continue
		}
		for p := 0; p < kc; p++ {
			for s := 0; s < nr; s++ {
				j := j0 + s
				var v float32
				if j < jc+nc {
					if bs.trans {
						v = b[j*k+pc+p]
					} else {
						v = b[(pc+p)*n+j]
					}
				}
				dst[p*nr+s] = v
			}
		}
	}
}

// packIm2col packs B panels straight from the images, skipping the
// materialized column matrix entirely: each element is computed from the
// (channel, ky, kx) row decomposition and the (item, oy, ox) output
// pixel the column index names. Values — including the zero padding of
// out-of-image taps and of columns beyond the block — are identical to
// running packB over im2colInto's output, item by item, which is what
// keeps the fused and materialized conv paths bit-identical.
//
// A stride-1 panel whose columns all sit in one output row — every
// panel of a conv whose output width is a multiple of NR, the trunk at
// the paper's 256 px — packs each k-row as one clipped run of an image
// row (packRowPanel). Any other panel (rows or items shorter than NR,
// as on the refinement's 7×7 and 4×4 RoI grids, and strided convs)
// gathers element by element through a per-panel plan, so no k-row
// pays a per-segment setup.
func (bs bSource) packIm2col(kr *gemmKernel, pb []float32, jc, nc, pc, kc int) {
	nr, kcStride := kr.nr, kr.kc
	kern, stride, pad := bs.o.Kernel, bs.o.Stride, bs.o.Padding
	h, w, oh, ow := bs.h, bs.w, bs.oh, bs.ow
	x := bs.data
	// The gather plan: for tile column s, the image offset of its
	// receptive field's top-left tap in channel 0 (off; it may lie in
	// the padding) and that tap's row and column (ty, tx).
	var off, ty, tx [gemmMaxNR]int
	nPanels := (nc + nr - 1) / nr
	for np := 0; np < nPanels; np++ {
		dst := pb[np*kcStride*nr:][:kc*nr]
		j0 := jc + np*nr
		cols := min(nr, jc+nc-j0)
		// Decompose the panel's first row and column once; the k-rows
		// then walk (ch, ky, kx) incrementally.
		ch := pc / (kern * kern)
		rem := pc - ch*kern*kern
		ky := rem / kern
		kx := rem - ky*kern
		item := j0 / (oh * ow)
		pix := j0 - item*oh*ow
		oy := pix / ow
		ox := pix - oy*ow
		if stride == 1 && cols == nr && ox+nr <= ow {
			bs.packRowPanel(dst, nr, item*bs.plane, ch, ky, kx, oy-pad, ox-pad)
			continue
		}
		for s := 0; s < cols; s++ {
			ty[s], tx[s] = oy*stride-pad, ox*stride-pad
			off[s] = item*bs.plane + ty[s]*w + tx[s]
			if ox++; ox == ow {
				ox = 0
				if oy++; oy == oh {
					oy = 0
					item++
				}
			}
		}
		for p := 0; p < kc; p++ {
			d := dst[p*nr : p*nr+nr]
			tap := ch*h*w + ky*w + kx
			for s := 0; s < cols; s++ {
				if uint(ty[s]+ky) < uint(h) && uint(tx[s]+kx) < uint(w) {
					d[s] = x[off[s]+tap]
				} else {
					d[s] = 0
				}
			}
			clear(d[cols:])
			if kx++; kx == kern {
				kx = 0
				if ky++; ky == kern {
					ky = 0
					ch++
				}
			}
		}
	}
}

// packRowPanel packs the kc k-rows of a stride-1 panel whose nr columns
// are consecutive pixels of one output row: k-row (ch, ky, kx) is image
// row ty+ky of channel ch from column tx+kx on, clipped to the image
// and zero-padded around — one contiguous copy for an interior tap.
// base is the item's image offset; (ty, tx) the first column's
// top-left tap, in the padding when negative.
func (bs bSource) packRowPanel(dst []float32, nr, base, ch, ky, kx, ty, tx int) {
	kern, h, w := bs.o.Kernel, bs.h, bs.w
	x := bs.data
	for p := 0; p*nr < len(dst); p++ {
		d := dst[p*nr : p*nr+nr]
		sy, sx := ty+ky, tx+kx
		switch {
		case sy < 0 || sy >= h:
			clear(d)
		case sx >= 0 && sx+nr <= w:
			row := base + (ch*h+sy)*w + sx
			copy(d, x[row:row+nr])
		default:
			lo, hi := max(0, -sx), max(0, min(nr, w-sx))
			lo = min(lo, hi)
			row := base + (ch*h+sy)*w + sx
			clear(d[:lo])
			copy(d[lo:hi], x[row+lo:row+hi])
			clear(d[hi:])
		}
		if kx++; kx == kern {
			kx = 0
			if ky++; ky == kern {
				ky = 0
				ch++
			}
		}
	}
}

func gemmPacked(sc *ProfileScope, transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	gemmPackedScoped(gemmActive.Load(), sc, transA, m, n, k, alpha, a, denseB(transB, k, n, b), plainOut(c, n, beta))
}

// gemmPackedWith runs the packed sweep with an explicit kernel and B
// source into a plain row-major C; the parity suites use it to pin asm
// kernels against their portable reference twins on identical geometry.
func gemmPackedWith(kr *gemmKernel, transA bool, m, n, k int, alpha float32, a []float32, bs bSource, beta float32, c []float32) {
	gemmPackedScoped(kr, nil, transA, m, n, k, alpha, a, bs, plainOut(c, n, beta))
}

// gemmPackedScoped runs the packed sweep into out, attributing its time
// to sc.
func gemmPackedScoped(kr *gemmKernel, sc *ProfileScope, transA bool, m, n, k int, alpha float32, a []float32, bs bSource, out cOut) {
	on, t0 := profStart()
	mPanels := (m + kr.mr - 1) / kr.mr
	kBlocks := (k + kr.kc - 1) / kr.kc
	nBlocks := (n + kr.nc - 1) / kr.nc

	pa := packBufGet(kBlocks * mPanels * kr.kc * kr.mr)
	packA(kr, transA, m, k, alpha, a, pa)

	// One pack buffer per worker slot; nc is a multiple of nr for every
	// registered kernel, so kc·nc floats hold a block's panels exactly.
	pbStride := kr.kc * kr.nc
	slots := parallel.Slots(nBlocks, 1)
	pbAll := packBufGet(slots * pbStride)

	if slots == 1 {
		// Serial fast path: calling the named block sweep directly avoids
		// creating a closure (which Go heap-allocates unconditionally
		// because it may flow to a goroutine) — this keeps single-worker
		// inference allocation-free.
		gemmPackedBlocks(kr, bs, m, n, k, out, pa, pbAll, kBlocks, mPanels, 0, nBlocks)
	} else {
		parallel.ForIndexed(nBlocks, 1, func(slot, b0, b1 int) {
			pb := pbAll[slot*pbStride : (slot+1)*pbStride]
			gemmPackedBlocks(kr, bs, m, n, k, out, pa, pb, kBlocks, mPanels, b0, b1)
		})
	}

	packBufPut(pbAll)
	packBufPut(pa)
	profEnd(on, sc, profGemmPacked, t0)
}

// gemmPackedBlocks sweeps column blocks [b0, b1) using the private pack
// buffer pb for B panels.
func gemmPackedBlocks(kr *gemmKernel, bs bSource, m, n, k int, out cOut, pa, pb []float32, kBlocks, mPanels, b0, b1 int) {
	for blk := b0; blk < b1; blk++ {
		jc := blk * kr.nc
		nc := n - jc
		if nc > kr.nc {
			nc = kr.nc
		}
		for kb := 0; kb < kBlocks; kb++ {
			pc := kb * kr.kc
			kc := k - pc
			if kc > kr.kc {
				kc = kr.kc
			}
			bs.pack(kr, pb, jc, nc, pc, kc)
			gemmPackedBlockTiles(kr, m, kc, out, pa, pb, kb, kBlocks, mPanels, jc, nc)
		}
	}
}

// gemmPackedBlockTiles sweeps the micro-kernel over one (column block,
// k-block) pair whose B panels are already packed in pb — shared by the
// per-call packers above and the prepacked-B driver (gemm_prepack.go),
// so both consume panel data through identical tile arithmetic. Each
// tile is finished in C as soon as the kernel produces it: the avx512
// kernel stores full tiles itself, everything else goes through
// storeTile, with the same per-element operations either way.
func gemmPackedBlockTiles(kr *gemmKernel, m, kc int, out cOut, pa, pb []float32, kb, kBlocks, mPanels, jc, nc int) {
	mr, nr := kr.mr, kr.nr
	nPanels := (nc + nr - 1) / nr
	first, last := kb == 0, kb == kBlocks-1
	var acc [gemmMaxTile]float32
	for mp := 0; mp < mPanels; mp++ {
		paPanel := pa[(kb*mPanels+mp)*kr.kc*mr:]
		i0 := mp * mr
		mi := m - i0
		if mi > mr {
			mi = mr
		}
		for np := 0; np < nPanels; np++ {
			pbPanel := pb[np*kr.kc*nr:]
			j0 := jc + np*nr
			nj := jc + nc - j0
			if nj > nr {
				nj = nr
			}
			if mi == mr && nj == nr && gemmMicroStore(kr.kind, kc, paPanel, pbPanel, out, i0, j0, first, last) {
				continue
			}
			gemmMicroRun(kr.kind, mr, nr, kc, paPanel, pbPanel, &acc)
			storeTile(out, i0, j0, mi, nj, nr, &acc, first, last)
		}
	}
}

// packA lays op(A) out as [kBlocks][mPanels][KC·MR] panels with alpha
// folded in: within a panel, element (p, r) holds alpha·op(A)[i0+r, pc+p].
// Rows beyond m pad with zeros so the micro-kernel needs no row tail.
func packA(kr *gemmKernel, transA bool, m, k int, alpha float32, a []float32, pa []float32) {
	mr, kcMax := kr.mr, kr.kc
	mPanels := (m + mr - 1) / mr
	for kb, pc := 0, 0; pc < k; kb, pc = kb+1, pc+kcMax {
		kc := k - pc
		if kc > kcMax {
			kc = kcMax
		}
		for mp := 0; mp < mPanels; mp++ {
			dst := pa[(kb*mPanels+mp)*kcMax*mr:]
			i0 := mp * mr
			if i0+mr <= m {
				// Full panel: no row bounds checks in the copy loops.
				if transA {
					for p := 0; p < kc; p++ {
						arow := a[(pc+p)*m+i0 : (pc+p)*m+i0+mr]
						d := dst[p*mr : p*mr+mr]
						for r, v := range arow {
							d[r] = alpha * v
						}
					}
				} else {
					for r := 0; r < mr; r++ {
						src := a[(i0+r)*k+pc : (i0+r)*k+pc+kc]
						for p, v := range src {
							dst[p*mr+r] = alpha * v
						}
					}
				}
				continue
			}
			for p := 0; p < kc; p++ {
				for r := 0; r < mr; r++ {
					i := i0 + r
					var v float32
					if i < m {
						if transA {
							v = a[(pc+p)*m+i]
						} else {
							v = a[i*k+pc+p]
						}
					}
					dst[p*mr+r] = alpha * v
				}
			}
		}
	}
}

// storeTile finishes the mi×nj valid region of an MR×NR accumulator
// tile (row stride nr) in C at (i0, j0): on the first k-block the
// destination is beta-scaled first, matching the beta-then-accumulate
// semantics of the unblocked kernel, and on the last k-block each row
// runs through the epilogue of its output channel i0+r. The tile's
// columns are written in runs that each stay inside one item of out.
// gemmMicroStore's vector code performs exactly these operations, in
// this order, on full avx512 tiles.
func storeTile(out cOut, i0, j0, mi, nj, nr int, acc *[gemmMaxTile]float32, first, last bool) {
	cols := out.cols
	item, p := j0/cols, j0%cols
	for s := 0; s < nj; {
		run := min(nj-s, cols-p)
		base := item*out.item + p
		for r := 0; r < mi; r++ {
			off := base + (i0+r)*cols
			crow := out.data[off : off+run]
			arow := acc[r*nr+s : r*nr+s+run]
			switch {
			case first && out.beta == 0:
				copy(crow, arow)
			case first && out.beta != 1:
				beta := out.beta
				for e := range crow {
					// The conversion rounds the product on its own, so
					// no compiler may fuse it with the add into an FMA.
					crow[e] = float32(beta*crow[e]) + arow[e]
				}
			default:
				for e := range crow {
					crow[e] += arow[e]
				}
			}
			if last {
				out.ep.apply(crow, i0+r)
			}
		}
		s += run
		item++
		p = 0
	}
}

// gemmMicro4x8Go accumulates a 4×8 tile over kc packed steps:
// acc[r*8+s] = Σ_p pa[p*4+r]·pb[p*8+s]. It is the portable muladd-family
// kernel and the bit-reference for the SSE implementation, whose
// MULPS/ADDPS per-lane rounding is identical to scalar mul-then-add
// (pinned by TestGemmMicroKernelParity).
func gemmMicro4x8Go(kc int, pa, pb []float32, acc *[gemmMaxTile]float32) {
	var (
		c00, c01, c02, c03, c04, c05, c06, c07 float32
		c10, c11, c12, c13, c14, c15, c16, c17 float32
		c20, c21, c22, c23, c24, c25, c26, c27 float32
		c30, c31, c32, c33, c34, c35, c36, c37 float32
	)
	pa = pa[:kc*4]
	pb = pb[:kc*8]
	for p := 0; p < kc; p++ {
		pav := pa[p*4 : p*4+4]
		pbv := pb[p*8 : p*8+8]
		a0, a1, a2, a3 := pav[0], pav[1], pav[2], pav[3]
		b0, b1, b2, b3 := pbv[0], pbv[1], pbv[2], pbv[3]
		b4, b5, b6, b7 := pbv[4], pbv[5], pbv[6], pbv[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c24 += a2 * b4
		c25 += a2 * b5
		c26 += a2 * b6
		c27 += a2 * b7
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		c34 += a3 * b4
		c35 += a3 * b5
		c36 += a3 * b6
		c37 += a3 * b7
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = c00, c01, c02, c03, c04, c05, c06, c07
	acc[8], acc[9], acc[10], acc[11], acc[12], acc[13], acc[14], acc[15] = c10, c11, c12, c13, c14, c15, c16, c17
	acc[16], acc[17], acc[18], acc[19], acc[20], acc[21], acc[22], acc[23] = c20, c21, c22, c23, c24, c25, c26, c27
	acc[24], acc[25], acc[26], acc[27], acc[28], acc[29], acc[30], acc[31] = c30, c31, c32, c33, c34, c35, c36, c37
}
