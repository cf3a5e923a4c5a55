package tensor

import "rhsd/internal/parallel"

// Packed cache-blocked int8 GEMM, the quantized sibling of
// gemm_packed.go. The block structure is identical — packed A panels
// reused across column blocks, per-slot B pack buffers, MR×NR register
// tiles — with three int8-specific twists:
//
//   - Panels are laid out in 4-deep k-groups (one dword per row/column
//     per group), the granule VPDPBUSD consumes: A panels
//     are [kc4][MR][4]int8, B panels [kc4][NR][4]uint8. K-tails zero-pad
//     the A side, which makes the B side's tail bytes irrelevant.
//   - Accumulation is int32 and exact, so k-blocks may combine in any
//     grouping without a numerics concern. When k spans several blocks
//     the per-tile sums carry across blocks in a per-slot int32 buffer;
//     a single k-block dequantizes straight from the register tile.
//   - The epilogue fuses dequantization with the conv tail: for output
//     row r, C[r,s] = deqScale[r]·(acc[r,s] − corr[r]) + bias[r], then
//     an optional leaky ReLU. corr[r] = zp·Σ_k w_q[r,k] is the
//     activation zero-point correction: Σ w_q·(x_q − zp) rewritten so
//     the kernel multiplies raw bytes. Padding taps quantize real 0.0
//     to exactly zp, so their corrected contribution is exactly zero —
//     quantized and float conv see identical padding semantics.
//
// A panels are packed once per weight tensor per kernel geometry
// (QConvWeights), not per call: weights are immutable during inference,
// and pre-packing for every usable kernel keeps SetQGemmKernel swaps
// race-free.

// qepilogue is the fused dequantize-and-finish tail of a quantized
// GEMM; passed by value for the same escape-analysis reason as bSource.
type qepilogue struct {
	deqScale []float32 // [m] scaleW[r]·scaleAct
	corr     []int32   // [m] zp·rowSum[r]
	bias     []float32 // [m] channel bias, nil for none
	act      bool      // apply leaky ReLU
	slope    float32
}

// qbSource describes where B panels come from: a dense k×n uint8 matrix
// or a virtual im2col lowering of a quantized [c,h,w] image whose
// out-of-image taps read as zero (the quantized zero point).
type qbSource struct {
	im2col      bool
	data        []uint8
	k, n        int
	zero        uint8 // im2col pad byte: the quantized representation of 0.0
	c, h, w, ow int
	o           ConvOpts
}

func qdenseB(k, n int, b []uint8) qbSource {
	return qbSource{data: b, k: k, n: n}
}

func qim2colB(x []uint8, c, h, w int, o ConvOpts, zero uint8) qbSource {
	return qbSource{
		im2col: true,
		data:   x,
		k:      c * o.Kernel * o.Kernel,
		n:      o.OutDim(h) * o.OutDim(w),
		zero:   zero,
		c:      c, h: h, w: w, ow: o.OutDim(w),
		o: o,
	}
}

// pack lays the (pc..pc+kc, jc..jc+nc) block of B out as
// [nPanels][kc4][NR][4] panels: byte (g, s, j) holds B[pc+4g+j, j0+s].
// Columns beyond the block and k-tail bytes pad with zero — both are
// multiplied by zero-padded A or discarded by the tile store. Full
// 4-row k-groups interleave with the SIMD transpose; only the k-tail
// group (kc%4 lanes) takes the scalar path.
func (bs qbSource) pack(kr *qgemmKernel, pb []uint8, jc, nc, pc, kc int) {
	if bs.im2col {
		bs.packIm2col(kr, pb, jc, nc, pc, kc)
		return
	}
	nr, kcStride := kr.nr, kr.kc
	n, b := bs.n, bs.data
	kc4 := (kc + 3) / 4
	fullG := kc / 4
	nPanels := (nc + nr - 1) / nr
	for np := 0; np < nPanels; np++ {
		dst := pb[np*kcStride*nr:]
		j0 := jc + np*nr
		cols := min(jc+nc-j0, nr)
		for g := 0; g < fullG; g++ {
			gd := dst[g*nr*4 : (g+1)*nr*4]
			p := pc + g*4
			qinterleaveRows(gd, b[p*n+j0:], b[(p+1)*n+j0:], b[(p+2)*n+j0:], b[(p+3)*n+j0:], cols)
			for i := cols * 4; i < nr*4; i++ {
				gd[i] = 0
			}
		}
		for g := fullG; g < kc4; g++ {
			gd := dst[g*nr*4 : (g+1)*nr*4]
			for jj := 0; jj < 4; jj++ {
				p := g*4 + jj
				if p >= kc {
					for s := 0; s < nr; s++ {
						gd[s*4+jj] = 0
					}
					continue
				}
				brow := b[(pc+p)*n+j0:]
				for s := 0; s < cols; s++ {
					gd[s*4+jj] = brow[s]
				}
				for s := cols; s < nr; s++ {
					gd[s*4+jj] = 0
				}
			}
		}
	}
}

// fillBytes sets every byte of b to v (the im2col zero point).
func fillBytes(b []uint8, v uint8) {
	for i := range b {
		b[i] = v
	}
}

// packIm2col packs B panels straight from the quantized image — the
// same incremental (channel, ky, kx) × (oy, ox) walk as the float
// packer, interleaved into 4-deep k-groups, with out-of-image taps
// writing the quantized zero point instead of 0.0.
//
// The walk writes each im2col row contiguously into a pooled scratch
// (stride-1 interior segments become one memmove) and the 4-deep
// interleave happens afterwards with the SIMD transpose — the direct
// stride-4 byte scatter this replaces dominated the whole quantized
// GEMM. Full qvnni panels inside one output row are packed with
// AVX-512 instead (qpackIm2colPanel); this walk is their bit reference.
func (bs qbSource) packIm2col(kr *qgemmKernel, pb []uint8, jc, nc, pc, kc int) {
	nr, kcStride := kr.nr, kr.kc
	o := bs.o
	kern, stride := o.Kernel, o.Stride
	h, w, ow := bs.h, bs.w, bs.ow
	x := bs.data
	zp := bs.zero
	kc4 := (kc + 3) / 4
	nPanels := (nc + nr - 1) / nr
	var tmp []uint8
	for np := 0; np < nPanels; np++ {
		dst := pb[np*kcStride*nr:]
		j0 := jc + np*nr
		cols := min(jc+nc-j0, nr)
		if cols == nr && qpackIm2colPanel(kr.kind, bs, dst, j0, pc, kc) {
			continue
		}
		if tmp == nil {
			tmp = qbytePool.get(kc4 * 4 * nr)
		}
		ch := pc / (kern * kern)
		rem := pc - ch*kern*kern
		ky := rem / kern
		kx := rem - ky*kern
		oy0 := j0 / ow
		ox0 := j0 - oy0*ow
		for p := 0; p < kc; p++ {
			row := tmp[p*nr : p*nr+nr]
			base := ch * h * w
			dy := ky - o.Padding
			dx := kx - o.Padding
			oy, ox := oy0, ox0
			for s := 0; s < cols; {
				seg := min(ow-ox, cols-s)
				sy := oy*stride + dy
				switch {
				case sy < 0 || sy >= h:
					fillBytes(row[s:s+seg], zp)
				case stride == 1:
					// One contiguous source run clipped to [0, w):
					// element e reads sx = ox+e+dx.
					sx0 := ox + dx
					lead := 0
					if sx0 < 0 {
						lead = min(-sx0, seg)
					}
					valid := min(seg-lead, w-(sx0+lead))
					if valid < 0 {
						valid = 0
					}
					fillBytes(row[s:s+lead], zp)
					if valid > 0 {
						copy(row[s+lead:s+lead+valid], x[base+sy*w+sx0+lead:])
					}
					fillBytes(row[s+lead+valid:s+seg], zp)
				default:
					srow := x[base+sy*w : base+sy*w+w]
					for e := 0; e < seg; e++ {
						sx := (ox+e)*stride + dx
						if sx >= 0 && sx < w {
							row[s+e] = srow[sx]
						} else {
							row[s+e] = zp
						}
					}
				}
				s += seg
				ox = 0
				oy++
			}
			fillBytes(row[cols:], zp)
			kx++
			if kx == kern {
				kx = 0
				ky++
				if ky == kern {
					ky = 0
					ch++
				}
			}
		}
		// K-tail lanes multiply zero-padded A bytes; fill them anyway so
		// the packed block is deterministic.
		for p := kc; p < kc4*4; p++ {
			fillBytes(tmp[p*nr:p*nr+nr], zp)
		}
		for g := 0; g < kc4; g++ {
			qinterleaveRows(dst[g*nr*4:(g+1)*nr*4],
				tmp[g*4*nr:], tmp[(g*4+1)*nr:], tmp[(g*4+2)*nr:], tmp[(g*4+3)*nr:], nr)
		}
	}
	if tmp != nil {
		qbytePool.put(tmp)
	}
}

// qpackA lays a quantized m×k int8 matrix out as
// [kBlocks][mPanels][kc4][MR][4] panels: byte (g, r, j) holds
// a[i0+r, pc+4g+j]. Row and k tails zero-pad, so the micro-kernel needs
// no tail handling and B-side tail bytes cannot leak into results.
func qpackA(kr *qgemmKernel, m, k int, a []int8, pa []int8) {
	mr, kcMax := kr.mr, kr.kc
	mPanels := (m + mr - 1) / mr
	for kb, pc := 0, 0; pc < k; kb, pc = kb+1, pc+kcMax {
		kc := min(k-pc, kcMax)
		kc4 := (kc + 3) / 4
		fullG := kc / 4
		for mp := 0; mp < mPanels; mp++ {
			dst := pa[(kb*mPanels+mp)*kcMax*mr:]
			i0 := mp * mr
			rows := min(m-i0, mr)
			// In-range rows: each row's 4-deep k-groups are contiguous in
			// the source, so a full group is one 4-byte move.
			for r := 0; r < rows; r++ {
				src := a[(i0+r)*k+pc : (i0+r)*k+pc+kc]
				d := dst[r*4:]
				for g := 0; g < fullG; g++ {
					s := src[g*4 : g*4+4]
					o := g * mr * 4
					d[o] = s[0]
					d[o+1] = s[1]
					d[o+2] = s[2]
					d[o+3] = s[3]
				}
				for g := fullG; g < kc4; g++ {
					o := g * mr * 4
					for jj := 0; jj < 4; jj++ {
						var v int8
						if p := g*4 + jj; p < kc {
							v = src[p]
						}
						d[o+jj] = v
					}
				}
			}
			// Row tail beyond m zero-pads every lane.
			for r := rows; r < mr; r++ {
				d := dst[r*4:]
				for g := 0; g < kc4; g++ {
					o := g * mr * 4
					d[o], d[o+1], d[o+2], d[o+3] = 0, 0, 0, 0
				}
			}
		}
	}
}

// qgemmPackedSize returns the packed-A length for an m×k matrix under
// kernel geometry kr.
func qgemmPackedSize(kr *qgemmKernel, m, k int) int {
	mPanels := (m + kr.mr - 1) / kr.mr
	kBlocks := (k + kr.kc - 1) / kr.kc
	return kBlocks * mPanels * kr.kc * kr.mr
}

// qgemmPackedWith runs the packed int8 sweep with an explicit kernel,
// pre-packed A panels and a B source, dequantizing into the float32
// destination. The parity suites use it to pin the asm kernels against
// their portable reference twins on identical packed bytes.
func qgemmPackedWith(kr *qgemmKernel, m, n, k int, pa []int8, bs qbSource, ep qepilogue, c []float32) {
	qgemmPackedScoped(kr, nil, m, n, k, pa, bs, ep, c)
}

// qgemmPackedScoped is qgemmPackedWith with a profile-attribution scope.
func qgemmPackedScoped(kr *qgemmKernel, sc *ProfileScope, m, n, k int, pa []int8, bs qbSource, ep qepilogue, c []float32) {
	on, t0 := profStart()
	mPanels := (m + kr.mr - 1) / kr.mr
	kBlocks := (k + kr.kc - 1) / kr.kc
	nBlocks := (n + kr.nc - 1) / kr.nc

	pbStride := kr.kc * kr.nc
	slots := parallel.Slots(nBlocks, 1)
	pbAll := qbytePool.get(slots * pbStride)
	var cbAll []int32
	cbStride := 0
	if kBlocks > 1 {
		// Int32 carries for every tile of one column block; only needed
		// when the k axis spans multiple blocks (dequantization must see
		// the complete sum).
		cbStride = mPanels * kr.mr * kr.nc
		cbAll = qcarryPool.get(slots * cbStride)
	}

	if slots == 1 {
		// Serial fast path: named call, no closure, no allocation (see
		// gemmPackedWith).
		qgemmPackedBlocks(kr, bs, m, n, k, pa, pbAll, cbAll, ep, c, kBlocks, mPanels, 0, nBlocks)
	} else {
		parallel.ForIndexed(nBlocks, 1, func(slot, b0, b1 int) {
			pb := pbAll[slot*pbStride : (slot+1)*pbStride]
			var cb []int32
			if cbAll != nil {
				cb = cbAll[slot*cbStride : (slot+1)*cbStride]
			}
			qgemmPackedBlocks(kr, bs, m, n, k, pa, pb, cb, ep, c, kBlocks, mPanels, b0, b1)
		})
	}

	if cbAll != nil {
		qcarryPool.put(cbAll)
	}
	qbytePool.put(pbAll)
	profEnd(on, sc, profQGemm, t0)
}

// qgemmPackedBlocks sweeps column blocks [b0, b1) with private B pack
// and carry buffers. Full tiles of the qvnni kernel are finished inside
// the kernel (qgemmMicroStore); every other tile lands in the int32
// acc, declared once per call, and is combined with its carry and
// stored by qstoreTile.
func qgemmPackedBlocks(kr *qgemmKernel, bs qbSource, m, n, k int, pa []int8, pb []uint8, cb []int32, ep qepilogue, c []float32, kBlocks, mPanels, b0, b1 int) {
	mr, nr := kr.mr, kr.nr
	npMax := kr.nc / nr
	var acc [qgemmMaxTile]int32
	for blk := b0; blk < b1; blk++ {
		jc := blk * kr.nc
		nc := min(n-jc, kr.nc)
		nPanels := (nc + nr - 1) / nr
		for kb := 0; kb < kBlocks; kb++ {
			pc := kb * kr.kc
			kc := min(k-pc, kr.kc)
			kc4 := (kc + 3) / 4
			bs.pack(kr, pb, jc, nc, pc, kc)
			first, last := kb == 0, kb == kBlocks-1
			for mp := 0; mp < mPanels; mp++ {
				paPanel := pa[(kb*mPanels+mp)*kr.kc*mr:]
				i0 := mp * mr
				mi := min(m-i0, mr)
				for np := 0; np < nPanels; np++ {
					j0 := jc + np*nr
					nj := min(jc+nc-j0, nr)
					pbPanel := pb[np*kr.kc*nr:]
					var slot []int32
					if !first || !last {
						slot = cb[(mp*npMax+np)*mr*nr : (mp*npMax+np+1)*mr*nr]
					}
					if mi == mr && nj == nr && qgemmMicroStore(kr.kind, kc4, paPanel, pbPanel, c, n, i0, j0, slot, first, last, ep) {
						continue
					}
					qgemmMicroRun(kr.kind, mr, nr, kc4, paPanel, pbPanel, &acc)
					if first && last {
						qstoreTile(c, n, i0, j0, mi, nj, nr, acc[:mr*nr], ep)
						continue
					}
					switch {
					case first:
						copy(slot, acc[:mr*nr])
					case last:
						for i, v := range acc[:mr*nr] {
							slot[i] += v
						}
						qstoreTile(c, n, i0, j0, mi, nj, nr, slot, ep)
					default:
						for i, v := range acc[:mr*nr] {
							slot[i] += v
						}
					}
				}
			}
		}
	}
}

// qstoreTile dequantizes the mi×nj valid region of an int32 tile (row
// stride nr) into C at (i0, j0), fusing the zero-point correction, the
// per-channel scale, the bias and the optional leaky ReLU. It is the bit
// reference for the qvnni kernel's fused store (qgemmMicroStore), which
// performs the same operations in the same order.
func qstoreTile(c []float32, n, i0, j0, mi, nj, nr int, tile []int32, ep qepilogue) {
	for r := 0; r < mi; r++ {
		row := i0 + r
		ds := ep.deqScale[row]
		co := ep.corr[row]
		var b float32
		if ep.bias != nil {
			b = ep.bias[row]
		}
		crow := c[row*n+j0 : row*n+j0+nj]
		arow := tile[r*nr : r*nr+nj]
		// The outer conversion rounds the product on its own, so no
		// compiler may fuse it with the bias add into an FMA.
		if ep.act {
			for s, v := range arow {
				f := float32(ds*float32(v-co)) + b
				if f < 0 {
					f *= ep.slope
				}
				crow[s] = f
			}
		} else {
			for s, v := range arow {
				crow[s] = float32(ds*float32(v-co)) + b
			}
		}
	}
}

// QGemmInt8 runs the dequantizing int8 GEMM with the active kernel:
//
//	C[r,s] = deqScale[r]·(Σ_p aq[r,p]·b[p,s] − corr[r])
//
// aq is m×k row-major int8 (weights), b is k×n row-major uint8
// (activations). Used by benchmarks and as the dense-matrix entry to
// the quantized path; convolutions go through QConvWeights/QConv2DInfer
// with pre-packed panels instead.
func QGemmInt8(m, n, k int, aq []int8, b []uint8, deqScale []float32, corr []int32, c []float32) {
	kr := qgemmKernels.active.Load()
	pa := qpackAPool.get(qgemmPackedSize(kr, m, k))
	qpackA(kr, m, k, aq, pa)
	qgemmPackedWith(kr, m, n, k, pa, qdenseB(k, n, b), qepilogue{deqScale: deqScale, corr: corr}, c)
	qpackAPool.put(pa)
}

// QConvWeights is one conv layer's weight tensor on the quantized path:
// per-output-channel symmetric int8 values packed into micro-kernel
// panels for every int8 kernel usable on this machine, plus the
// per-channel scales and row sums the dequantization epilogue needs.
// Packing for every usable kernel up front is what lets SetQGemmKernel
// swap kernels mid-flight without repacking or locking.
type QConvWeights struct {
	OC, KK int
	Scales []float32 // [OC] symmetric weight scales
	RowSum []int32   // [OC] Σ_k w_q[r,k], for the zero-point correction
	packed map[string][]int8
}

// NewQConvWeights quantizes a [oc, kk] float32 weight matrix (a conv
// weight tensor flattened to its GEMM shape).
func NewQConvWeights(w []float32, oc, kk int) *QConvWeights {
	q, scales := QuantizeWeightsPerChannel(w, oc, kk)
	rowSum := make([]int32, oc)
	for r := 0; r < oc; r++ {
		var s int32
		for _, v := range q[r*kk : r*kk+kk] {
			s += int32(v)
		}
		rowSum[r] = s
	}
	packed := make(map[string][]int8)
	for _, kr := range qgemmKernels.all {
		if !qarchKernelUsable(kr) {
			continue
		}
		pa := make([]int8, qgemmPackedSize(kr, oc, kk))
		qpackA(kr, oc, kk, q, pa)
		packed[kr.name] = pa
	}
	return &QConvWeights{OC: oc, KK: kk, Scales: scales, RowSum: rowSum, packed: packed}
}

// QConvPlan binds quantized weights to one activation quantization: the
// dequantization scale and zero-point correction are precomputed per
// output channel so the inference epilogue is two fused multiply-adds
// per element.
type QConvPlan struct {
	W        *QConvWeights
	In       QuantParams
	DeqScale []float32 // [OC] Scales[r]·In.Scale
	Corr     []int32   // [OC] In.Zero·RowSum[r]
}

// Plan derives the per-channel dequantization constants for an input
// calibrated to in.
func (qw *QConvWeights) Plan(in QuantParams) *QConvPlan {
	deq := make([]float32, qw.OC)
	corr := make([]int32, qw.OC)
	for r := range deq {
		deq[r] = qw.Scales[r] * in.Scale
		corr[r] = int32(in.Zero) * qw.RowSum[r]
	}
	return &QConvPlan{W: qw, In: in, DeqScale: deq, Corr: corr}
}
