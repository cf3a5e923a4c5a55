package tensor

import (
	"fmt"

	"rhsd/internal/parallel"
)

// This file holds the forward kernels of convolution, deconvolution and
// channel concatenation that training and inference share, plus
// inference max pooling. The backward passes run them too: a conv's
// input gradient is the deconvolution of its output gradient, and a
// deconv's the convolution (conv.go). Memory comes from a caller-owned
// Workspace; a nil one allocates, which is how training calls them. The
// bias + leaky-ReLU epilogue is fused into the output — finished tile by
// tile inside the packed GEMM on the fused conv path, in one sweep after
// the product otherwise — with the add-then-scale sequence of a separate
// activation layer, so a fused pass matches the unfused one bit for bit.

// Epilogue describes the fused per-channel tail of a convolution: an
// optional bias add followed by an optional leaky ReLU. Applying it in
// one sweep performs the same add-then-scale sequence as a bias add
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
// Each pixel adds its (ky, kx) terms in ascending order.
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
				if o.Stride == 1 {
					// Column row oy lands on image row oy+dy, and only
					// its ox in [lo, hi) inside that row: add those runs
					// without a per-element bounds test.
					dy, dx := ky-o.Padding, kx-o.Padding
					oy0, oy1 := max(0, -dy), min(oh, h-dy)
					lo, hi := max(0, -dx), min(ow, w-dx)
					if oy1 > oy0 && hi > lo {
						addRuns(xd[base+(oy0+dy)*w+lo+dx:], src[oy0*ow+lo:], oy1-oy0, hi-lo, w, ow)
					}
					continue
				}
				i := 0
				for oy := 0; oy < oh; oy++ {
					sy := oy*o.Stride + ky - o.Padding
					if sy < 0 || sy >= h {
						i += ow
						continue
					}
					drow := xd[base+sy*w : base+sy*w+w]
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

// addRuns adds rows runs of n floats, dst[r·ds+e] += src[r·ss+e], with
// AVX-512 where the host has it (addRunsVector), else in Go.
func addRuns(dst, src []float32, rows, n, ds, ss int) {
	if !addRunsVector(dst, src, rows, n, ds, ss) {
		addRunsGo(dst, src, rows, n, ds, ss)
	}
}

// addRunsGo is addRuns in Go, the bit reference of addRunsVector.
func addRunsGo(dst, src []float32, rows, n, ds, ss int) {
	for r := 0; r < rows; r++ {
		dd, sv := dst[r*ds:r*ds+n], src[r*ss:r*ss+n]
		for e := range dd {
			dd[e] += sv[e]
		}
	}
}

// Conv2DInfer applies weights wgt [OC, C, K, K] to a batch x [N, C, H, W],
// returning [N, OC, OH, OW] with the epilogue ep (bias, activation)
// applied. Output and scratch come from ws; a nil ws allocates.
//
// It takes the fused path exactly when the per-item GEMM routes to the
// packed sweep (gemmUsesPacked); the test is per item, so batching N
// items into one GEMM (which only widens n) never changes the path a
// shape takes. Products routed to the row kernel, which walks op(B) by
// rows, run conv2DMaterialized instead.
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
	if !gemmUsesPacked(oc, oh*ow, kk) {
		return conv2DMaterialized(ws, x, wgt, o, ep)
	}
	// Fused path: one packed GEMM for the whole batch, m = OC and
	// n = N·OH·OW with the items' columns side by side. B panels are
	// packed straight from the images (bSource.packIm2col), so the
	// lowered column matrix is never materialized; A is packed once,
	// not once per item; and each tile lands in its item's channel
	// planes with the epilogue already applied (cOut). Every element
	// is the same k-chain and tail as a per-item GEMM would compute.
	out := ws.Tensor(n, oc, oh, ow)
	if n > 0 {
		dst := cOut{data: out.data, cols: oh * ow, item: oc * oh * ow, ep: ep}
		gemmPackedScoped(gemmKernels.active.Load(), ws.ProfileScope(), false, oc, n*oh*ow, kk, 1, wgt.data, im2colB(x.data, n, c, h, w, o), dst)
	}
	return out
}

// conv2DMaterialized is Conv2DInfer over materialized column matrices:
// each item is lowered by im2col and multiplied by Gemm, and the
// epilogue runs in one sweep after. It is the fused path's bit reference
// (TestConvInferFusedMatchesMaterialized).
func conv2DMaterialized(ws *Workspace, x, wgt *Tensor, o ConvOpts, ep Epilogue) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc := wgt.shape[0]
	oh, ow := o.OutDim(h), o.OutDim(w)
	kk := c * o.Kernel * o.Kernel
	out := ws.Tensor(n, oc, oh, ow)
	sc := ws.ProfileScope()
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

// Deconv2DInfer applies a transposed convolution (the paper's decoder,
// §3.1.1) with weights wgt [C, OC, K, K] to x [N, C, H, W], producing
// [N, OC, OH, OW] with OH = (H-1)*stride - 2*pad + K and ep applied —
// the adjoint of Conv2DInfer with the same geometry. Memory comes from
// ws; a nil ws allocates.
func Deconv2DInfer(ws *Workspace, x, wgt *Tensor, o ConvOpts, ep Epilogue) *Tensor {
	o.check()
	h, w := x.shape[2], x.shape[3]
	if wgt.shape[0] != x.shape[1] || wgt.shape[2] != o.Kernel || wgt.shape[3] != o.Kernel {
		panic(fmt.Sprintf("tensor: Deconv2DInfer weight %v incompatible with input %v", wgt.shape, x.shape))
	}
	oh := (h-1)*o.Stride - 2*o.Padding + o.Kernel
	ow := (w-1)*o.Stride - 2*o.Padding + o.Kernel
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Deconv2DInfer produces non-positive output %dx%d", oh, ow))
	}
	return deconv2DInto(ws, x, wgt, o, ep, oh, ow)
}

// deconv2DInto is Deconv2DInfer at an explicit output extent oh×ow, one
// whose conv under o has x's extent. Conv2DBackward passes the conv
// input's extent, which the formula above cannot recover at stride 2.
func deconv2DInto(ws *Workspace, x, wgt *Tensor, o ConvOpts, ep Epilogue, oh, ow int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc := wgt.shape[1]
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

// ConcatChannelsInfer concatenates NCHW tensors along the channel axis
// into memory from ws (a nil ws allocates). All inputs must agree on N,
// H and W.
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
