package tensor

import (
	"fmt"
	"sync/atomic"

	"rhsd/internal/parallel"
)

// This file holds the inference-only variants of the convolution kernels.
// They differ from the training entry points (conv.go) in exactly two
// ways: all scratch and output memory comes from a caller-owned Workspace
// instead of the heap, and the bias + leaky-ReLU epilogue is fused into
// the output — finished tile by tile inside the packed GEMM on the fused
// conv path, in one sweep after the product otherwise. The arithmetic —
// values, accumulation order, padding semantics — is identical, so
// inference results match the training-path Forward bit for bit.

// Epilogue describes the fused per-channel tail of a convolution: an
// optional bias add followed by an optional leaky ReLU. Applying it in
// one sweep performs the same add-then-scale sequence as addChannelBias
// followed by an activation layer, so fused and unfused paths agree
// exactly.
type Epilogue struct {
	Bias  *Tensor // [OC] channel bias, nil for none
	Act   bool    // apply leaky ReLU after the bias
	Slope float32 // negative-side slope (0 = plain ReLU)
}

// apply runs the epilogue over row, a run of output channel ch. With
// the activation on, a nil bias still adds +0 — the value the unfused
// activation layer sees — which turns −0 into +0.
func (ep Epilogue) apply(row []float32, ch int) {
	if ep.Bias == nil && !ep.Act {
		return
	}
	var b float32
	if ep.Bias != nil {
		b = ep.Bias.data[ch]
	}
	if !ep.Act {
		for j := range row {
			row[j] += b
		}
		return
	}
	for j, v := range row {
		v += b
		if v < 0 {
			v *= ep.Slope
		}
		row[j] = v
	}
}

// epilogueSweep applies ep to t [N,C,...] in a single pass.
func epilogueSweep(t *Tensor, ep Epilogue) {
	if ep.Bias == nil && !ep.Act {
		return
	}
	n, c := t.shape[0], t.shape[1]
	if n == 0 || c == 0 {
		return
	}
	plane := t.Size() / (n * c)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			ep.apply(t.data[(i*c+ch)*plane:(i*c+ch+1)*plane], ch)
		}
	}
}

// im2colInto lowers one image plane set [c,h,w] into cd, writing every
// element (out-of-bounds taps store an explicit zero), so cd may be dirty
// workspace memory. With a single worker the named channel sweep is
// called directly — no closure is created, keeping serial inference
// allocation-free (see gemmPacked for the rationale).
func im2colInto(xd []float32, c, h, w int, o ConvOpts, cd []float32) {
	im2colScoped(nil, xd, c, h, w, o, cd)
}

// im2colScoped is im2colInto with a profile-attribution scope.
func im2colScoped(sc *ProfileScope, xd []float32, c, h, w int, o ConvOpts, cd []float32) {
	on, t0 := profStart()
	if parallel.Workers() == 1 {
		im2colChans(xd, h, w, o, cd, 0, c)
		profEnd(on, sc, profIm2col, t0)
		return
	}
	perChan := o.Kernel * o.Kernel * o.OutDim(h) * o.OutDim(w)
	parallel.For(c, parallel.GrainFor(perChan, convMinChunkWork), func(c0, c1 int) {
		im2colChans(xd, h, w, o, cd, c0, c1)
	})
	profEnd(on, sc, profIm2col, t0)
}

// im2colChans lowers channels [c0, c1).
func im2colChans(xd []float32, h, w int, o ConvOpts, cd []float32, c0, c1 int) {
	oh, ow := o.OutDim(h), o.OutDim(w)
	for ch := c0; ch < c1; ch++ {
		base := ch * h * w
		row := ch * o.Kernel * o.Kernel
		for ky := 0; ky < o.Kernel; ky++ {
			for kx := 0; kx < o.Kernel; kx++ {
				dst := cd[row*oh*ow:]
				row++
				i := 0
				for oy := 0; oy < oh; oy++ {
					sy := oy*o.Stride + ky - o.Padding
					if sy < 0 || sy >= h {
						for e := 0; e < ow; e++ {
							dst[i] = 0
							i++
						}
						continue
					}
					srow := xd[base+sy*w : base+sy*w+w]
					for ox := 0; ox < ow; ox++ {
						sx := ox*o.Stride + kx - o.Padding
						if sx >= 0 && sx < w {
							dst[i] = srow[sx]
						} else {
							dst[i] = 0
						}
						i++
					}
				}
			}
		}
	}
}

// col2imInto scatters a column matrix back into the image buffer xd
// [c,h,w], zeroing each plane before accumulating so xd may be dirty.
// The ky/kx accumulation order matches Col2Im exactly.
func col2imInto(cd []float32, c, h, w int, o ConvOpts, xd []float32) {
	if parallel.Workers() == 1 {
		col2imChans(cd, h, w, o, xd, 0, c)
		return
	}
	perChan := o.Kernel * o.Kernel * o.OutDim(h) * o.OutDim(w)
	parallel.For(c, parallel.GrainFor(perChan, convMinChunkWork), func(c0, c1 int) {
		col2imChans(cd, h, w, o, xd, c0, c1)
	})
}

// col2imChans scatters channels [c0, c1).
func col2imChans(cd []float32, h, w int, o ConvOpts, xd []float32, c0, c1 int) {
	oh, ow := o.OutDim(h), o.OutDim(w)
	for ch := c0; ch < c1; ch++ {
		base := ch * h * w
		plane := xd[base : base+h*w]
		for j := range plane {
			plane[j] = 0
		}
		row := ch * o.Kernel * o.Kernel
		for ky := 0; ky < o.Kernel; ky++ {
			for kx := 0; kx < o.Kernel; kx++ {
				src := cd[row*oh*ow:]
				row++
				i := 0
				for oy := 0; oy < oh; oy++ {
					sy := oy*o.Stride + ky - o.Padding
					if sy < 0 || sy >= h {
						i += ow
						continue
					}
					drow := xd[base+sy*w : base+sy*w+w]
					if o.Stride == 1 {
						// Only ox in [lo, hi) lands inside the row: add
						// that run without a per-element bounds test.
						dx := kx - o.Padding
						lo, hi := max(0, -dx), min(ow, w-dx)
						if hi > lo {
							dd, ss := drow[lo+dx:hi+dx], src[i+lo:i+hi]
							for e := range dd {
								dd[e] += ss[e]
							}
						}
						i += ow
						continue
					}
					for ox := 0; ox < ow; ox++ {
						sx := ox*o.Stride + kx - o.Padding
						if sx >= 0 && sx < w {
							drow[sx] += src[i]
						}
						i++
					}
				}
			}
		}
	}
}

// Conv2DInfer is Conv2D with workspace-backed output and scratch plus a
// fused epilogue. ws may be nil (falls back to plain allocation).
func Conv2DInfer(ws *Workspace, x, wgt *Tensor, o ConvOpts, ep Epilogue) *Tensor {
	o.check()
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc := wgt.shape[0]
	if wgt.shape[1] != c || wgt.shape[2] != o.Kernel || wgt.shape[3] != o.Kernel {
		panic(fmt.Sprintf("tensor: Conv2DInfer weight %v incompatible with input %v opts %+v",
			wgt.shape, x.shape, o))
	}
	oh, ow := o.OutDim(h), o.OutDim(w)
	kk := c * o.Kernel * o.Kernel
	out := ws.Tensor(n, oc, oh, ow)
	sc := ws.ProfileScope()
	if convFusedEligible(oc, oh*ow, kk) {
		// Fused path: one packed GEMM for the whole batch, m = OC and
		// n = N·OH·OW with the items' columns side by side. B panels are
		// packed straight from the images (bSource.packIm2col), so the
		// lowered column matrix is never materialized; A is packed once,
		// not once per item; and each tile lands in its item's channel
		// planes with the epilogue already applied (cOut). Every element
		// is the same k-chain and tail as a per-item GEMM would compute.
		if n > 0 {
			dst := cOut{data: out.data, cols: oh * ow, item: oc * oh * ow, ep: ep}
			gemmPackedScoped(gemmActive.Load(), sc, false, oc, n*oh*ow, kk, 1, wgt.data, im2colB(x.data, n, c, h, w, o), dst)
		}
		return out
	}
	// One cols buffer for the whole batch, sliced per item: workspace
	// calls must stay outside the parallel region.
	colsAll := ws.Get(n * kk * oh * ow)
	if n == 1 || parallel.Workers() == 1 {
		conv2dInferItems(sc, x.data, wgt.data, colsAll, out.data, c, h, w, oc, kk, o, 0, n)
	} else {
		parallel.For(n, 1, func(n0, n1 int) {
			conv2dInferItems(sc, x.data, wgt.data, colsAll, out.data, c, h, w, oc, kk, o, n0, n1)
		})
	}
	ws.Release(colsAll)
	epilogueSweep(out, ep)
	return out
}

// convFusedEnabled gates the fused im2col→packB path; on by default,
// SetConvFusedIm2col turns it off for benchmark baselines and triage.
var convFusedEnabled atomic.Bool

func init() { convFusedEnabled.Store(true) }

// SetConvFusedIm2col enables or disables fusing im2col into the packed
// GEMM's B packer for inference convolutions, returning the previous
// setting. Both paths are bit-identical (TestConvInferFusedMatches
// Materialized); the toggle exists so the memory-traffic win stays
// measurable (`rhsd-bench -exp simd`) and as an operational chicken bit.
func SetConvFusedIm2col(on bool) (prev bool) {
	return convFusedEnabled.Swap(on)
}

// convFusedEligible mirrors Gemm's routing decision exactly: a conv
// whose per-item GEMM routes to the packed sweep packs B straight from
// the images (never materializing columns), one that routes to the row
// kernel materializes — the row kernel walks op(B) by rows and needs the
// lowered matrix. Sharing gemmUsesPacked keeps fused and materialized
// dispatch bit-identical per shape and extends fusion to the small
// refinement-stage convs the old 2^17 flop cliff kept on the
// materialized scalar path. The test is per item, so batching N items
// into one GEMM (which only widens n) never changes which path a shape
// takes.
func convFusedEligible(m, n, k int) bool {
	return convFusedEnabled.Load() && gemmUsesPacked(m, n, k)
}

// conv2dInferItems lowers and multiplies batch items [n0, n1).
func conv2dInferItems(sc *ProfileScope, xd, wd, colsAll, od []float32, c, h, w, oc, kk int, o ConvOpts, n0, n1 int) {
	oh, ow := o.OutDim(h), o.OutDim(w)
	for i := n0; i < n1; i++ {
		col := colsAll[i*kk*oh*ow : (i+1)*kk*oh*ow]
		im2colScoped(sc, xd[i*c*h*w:(i+1)*c*h*w], c, h, w, o, col)
		dst := od[i*oc*oh*ow : (i+1)*oc*oh*ow]
		GemmScoped(sc, false, false, oc, oh*ow, kk, 1, wd, col, 0, dst)
	}
}

// Deconv2DInfer is Deconv2D with workspace-backed memory and a fused
// epilogue.
func Deconv2DInfer(ws *Workspace, x, wgt *Tensor, o ConvOpts, ep Epilogue) *Tensor {
	o.check()
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if wgt.shape[0] != c || wgt.shape[2] != o.Kernel || wgt.shape[3] != o.Kernel {
		panic(fmt.Sprintf("tensor: Deconv2DInfer weight %v incompatible with input %v", wgt.shape, x.shape))
	}
	oc := wgt.shape[1]
	oh := (h-1)*o.Stride - 2*o.Padding + o.Kernel
	ow := (w-1)*o.Stride - 2*o.Padding + o.Kernel
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Deconv2DInfer produces non-positive output %dx%d", oh, ow))
	}
	kk := oc * o.Kernel * o.Kernel
	out := ws.Tensor(n, oc, oh, ow)
	colsAll := ws.Get(n * kk * h * w)
	sc := ws.ProfileScope()
	if n == 1 || parallel.Workers() == 1 {
		deconv2dInferItems(sc, x.data, wgt.data, colsAll, out.data, c, h, w, oc, oh, ow, kk, o, 0, n)
	} else {
		parallel.For(n, 1, func(n0, n1 int) {
			deconv2dInferItems(sc, x.data, wgt.data, colsAll, out.data, c, h, w, oc, oh, ow, kk, o, n0, n1)
		})
	}
	// The columns are dead once scattered: hand them back so the next
	// layer of the pass (the decoder's following deconv) reuses them.
	ws.Release(colsAll)
	epilogueSweep(out, ep)
	return out
}

// deconv2dInferItems multiplies and scatters batch items [n0, n1).
func deconv2dInferItems(sc *ProfileScope, xd, wd, colsAll, od []float32, c, h, w, oc, oh, ow, kk int, o ConvOpts, n0, n1 int) {
	for i := n0; i < n1; i++ {
		xi := xd[i*c*h*w : (i+1)*c*h*w]
		col := colsAll[i*kk*h*w : (i+1)*kk*h*w]
		GemmScoped(sc, true, false, kk, h*w, c, 1, wd, xi, 0, col)
		col2imInto(col, oc, oh, ow, o, od[i*oc*oh*ow:(i+1)*oc*oh*ow])
	}
}

// MaxPool2DInfer is MaxPool2D without argmax bookkeeping, writing into
// workspace memory.
func MaxPool2DInfer(ws *Workspace, x *Tensor, kernel, stride int) *Tensor {
	if kernel <= 0 || stride <= 0 {
		panic("tensor: MaxPool2DInfer requires positive kernel and stride")
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := (h-kernel)/stride + 1
	ow := (w-kernel)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: MaxPool2DInfer output empty for input %dx%d kernel %d stride %d", h, w, kernel, stride))
	}
	out := ws.Tensor(n, c, oh, ow)
	maxPool2DInto(x.data, n, c, h, w, kernel, stride, out.data, nil)
	return out
}

// ConcatChannelsInfer is ConcatChannels with workspace-backed output.
func ConcatChannelsInfer(ws *Workspace, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatChannelsInfer needs at least one input")
	}
	n, h, w := ts[0].shape[0], ts[0].shape[2], ts[0].shape[3]
	totalC := 0
	for _, t := range ts {
		if t.shape[0] != n || t.shape[2] != h || t.shape[3] != w {
			panic(fmt.Sprintf("tensor: ConcatChannelsInfer mismatch %v vs %v", ts[0].shape, t.shape))
		}
		totalC += t.shape[1]
	}
	out := ws.Tensor(n, totalC, h, w)
	plane := h * w
	for i := 0; i < n; i++ {
		off := i * totalC * plane
		for _, t := range ts {
			c := t.shape[1]
			copy(out.data[off:off+c*plane], t.data[i*c*plane:(i+1)*c*plane])
			off += c * plane
		}
	}
	return out
}
