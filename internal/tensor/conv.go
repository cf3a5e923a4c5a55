package tensor

import (
	"fmt"

	"rhsd/internal/parallel"
)

// convMinChunkWork is the per-chunk floor (in touched elements) below
// which the batched/blocked conv loops stay serial, matching the Gemm
// heuristic.
const convMinChunkWork = 1 << 15

// ConvOpts describes a 2-D convolution geometry: square kernel, symmetric
// stride and zero padding.
type ConvOpts struct {
	Kernel  int // kernel size (K×K)
	Stride  int // stride in both directions, ≥1
	Padding int // zero padding on each border
}

// OutDim returns the output spatial size for an input of size in.
func (o ConvOpts) OutDim(in int) int {
	return (in+2*o.Padding-o.Kernel)/o.Stride + 1
}

func (o ConvOpts) check() {
	if o.Kernel <= 0 || o.Stride <= 0 || o.Padding < 0 {
		panic(fmt.Sprintf("tensor: invalid conv opts %+v", o))
	}
}

// Im2Col lowers an input image x [C,H,W] into a matrix [C*K*K, OH*OW] so
// convolution becomes a single GEMM. Out-of-bounds taps read as zero.
// Channels lower independently (each owns a disjoint block of output
// rows), so they are distributed over the worker pool.
func Im2Col(x *Tensor, o ConvOpts) *Tensor {
	o.check()
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	oh, ow := o.OutDim(h), o.OutDim(w)
	col := New(c*o.Kernel*o.Kernel, oh*ow)
	im2colInto(x.data, c, h, w, o, col.data)
	return col
}

// Col2Im is the adjoint of Im2Col: it scatters a column matrix
// [C*K*K, OH*OW] back into an image [C,H,W], accumulating overlaps.
func Col2Im(col *Tensor, c, h, w int, o ConvOpts) *Tensor {
	o.check()
	oh, ow := o.OutDim(h), o.OutDim(w)
	if col.shape[0] != c*o.Kernel*o.Kernel || col.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with c=%d h=%d w=%d opts %+v",
			col.shape, c, h, w, o))
	}
	x := New(c, h, w)
	// Each channel scatters only into its own image plane, so channels
	// parallelise without write conflicts; the ky/kx accumulation order
	// within a channel is unchanged, keeping results bit-exact.
	col2imInto(col.data, c, h, w, o, x.data)
	return x
}

// Conv2D applies weights wgt [OC, C, K, K] and bias [OC] (bias may be nil)
// to a batch x [N, C, H, W], returning [N, OC, OH, OW].
func Conv2D(x, wgt, bias *Tensor, o ConvOpts) *Tensor {
	o.check()
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc := wgt.shape[0]
	if wgt.shape[1] != c || wgt.shape[2] != o.Kernel || wgt.shape[3] != o.Kernel {
		panic(fmt.Sprintf("tensor: Conv2D weight %v incompatible with input %v opts %+v",
			wgt.shape, x.shape, o))
	}
	oh, ow := o.OutDim(h), o.OutDim(w)
	out := New(n, oc, oh, ow)
	wmat := wgt.Reshape(oc, c*o.Kernel*o.Kernel)
	// Batch items write disjoint output planes, so they fan out over the
	// worker pool; with a single item the inner Gemm/Im2Col parallelise
	// instead.
	parallel.For(n, 1, func(n0, n1 int) {
		for i := n0; i < n1; i++ {
			xi := FromSlice(x.data[i*c*h*w:(i+1)*c*h*w], c, h, w)
			col := Im2Col(xi, o)
			dst := out.data[i*oc*oh*ow : (i+1)*oc*oh*ow]
			Gemm(false, false, oc, oh*ow, c*o.Kernel*o.Kernel, 1, wmat.data, col.data, 0, dst)
		}
	})
	if bias != nil {
		addChannelBias(out, bias)
	}
	return out
}

// Conv2DBackward computes the gradients of a Conv2D application given the
// upstream gradient gy [N, OC, OH, OW]. It returns dx and accumulates into
// dw [OC,C,K,K] and db [OC] when they are non-nil.
func Conv2DBackward(x, wgt, gy, dw, db *Tensor, o ConvOpts) (dx *Tensor) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc := wgt.shape[0]
	oh, ow := o.OutDim(h), o.OutDim(w)
	kk := c * o.Kernel * o.Kernel
	dx = New(n, c, h, w)
	wmat := wgt.Reshape(oc, kk)
	// Batch items are independent except for the dW accumulation. Each
	// item therefore computes its weight-gradient contribution into a
	// private buffer and the contributions are reduced in batch order
	// afterwards — the same one-add-per-item-per-element sequence as the
	// serial dW += gy·colᵀ loop, so results stay bit-identical. The n==1
	// case (the detection hot path) skips the buffer and accumulates
	// directly.
	var dwParts [][]float32
	if dw != nil && n > 1 {
		dwParts = make([][]float32, n)
	}
	parallel.For(n, 1, func(n0, n1 int) {
		for i := n0; i < n1; i++ {
			xi := FromSlice(x.data[i*c*h*w:(i+1)*c*h*w], c, h, w)
			gyi := gy.data[i*oc*oh*ow : (i+1)*oc*oh*ow]
			col := Im2Col(xi, o)
			if dw != nil {
				if dwParts != nil {
					part := make([]float32, oc*kk)
					Gemm(false, true, oc, kk, oh*ow, 1, gyi, col.data, 0, part)
					dwParts[i] = part
				} else {
					// dW += gy · colᵀ
					Gemm(false, true, oc, kk, oh*ow, 1, gyi, col.data, 1, dw.data)
				}
			}
			// dcol = Wᵀ · gy, then scatter back to image space.
			dcol := New(kk, oh*ow)
			Gemm(true, false, kk, oh*ow, oc, 1, wmat.data, gyi, 0, dcol.data)
			dxi := Col2Im(dcol, c, h, w, o)
			copy(dx.data[i*c*h*w:(i+1)*c*h*w], dxi.data)
		}
	})
	for _, part := range dwParts {
		for e, v := range part {
			dw.data[e] += v
		}
	}
	if db != nil {
		accumChannelBiasGrad(gy, db)
	}
	return dx
}

// Deconv2D applies a transposed convolution ("deconvolution" in the paper's
// decoder, §3.1.1) with weights wgt [C, OC, K, K] to x [N, C, H, W],
// producing [N, OC, OH, OW] where OH = (H-1)*stride - 2*pad + K. It is the
// exact adjoint of Conv2D with the same geometry, so gradient checking the
// pair validates both.
func Deconv2D(x, wgt, bias *Tensor, o ConvOpts) *Tensor {
	o.check()
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if wgt.shape[0] != c || wgt.shape[2] != o.Kernel || wgt.shape[3] != o.Kernel {
		panic(fmt.Sprintf("tensor: Deconv2D weight %v incompatible with input %v", wgt.shape, x.shape))
	}
	oc := wgt.shape[1]
	oh := (h-1)*o.Stride - 2*o.Padding + o.Kernel
	ow := (w-1)*o.Stride - 2*o.Padding + o.Kernel
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Deconv2D produces non-positive output %dx%d", oh, ow))
	}
	out := New(n, oc, oh, ow)
	kk := oc * o.Kernel * o.Kernel
	wmat := wgt.Reshape(c, kk)
	parallel.For(n, 1, func(n0, n1 int) {
		for i := n0; i < n1; i++ {
			xi := x.data[i*c*h*w : (i+1)*c*h*w]
			// col = Wᵀ · x, then col2im scatters into the larger output plane.
			col := New(kk, h*w)
			Gemm(true, false, kk, h*w, c, 1, wmat.data, xi, 0, col.data)
			oi := Col2Im(col, oc, oh, ow, o)
			copy(out.data[i*oc*oh*ow:(i+1)*oc*oh*ow], oi.data)
		}
	})
	if bias != nil {
		addChannelBias(out, bias)
	}
	return out
}

// Deconv2DBackward computes gradients for Deconv2D. gy has the output shape
// [N, OC, OH, OW]; it returns dx [N,C,H,W] and accumulates dw/db when
// non-nil.
func Deconv2DBackward(x, wgt, gy, dw, db *Tensor, o ConvOpts) (dx *Tensor) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc := wgt.shape[1]
	oh := (h-1)*o.Stride - 2*o.Padding + o.Kernel
	ow := (w-1)*o.Stride - 2*o.Padding + o.Kernel
	kk := oc * o.Kernel * o.Kernel
	dx = New(n, c, h, w)
	wmat := wgt.Reshape(c, kk)
	// Same deterministic-reduction scheme as Conv2DBackward: private dW
	// buffers per batch item, reduced in batch order.
	var dwParts [][]float32
	if dw != nil && n > 1 {
		dwParts = make([][]float32, n)
	}
	parallel.For(n, 1, func(n0, n1 int) {
		for i := n0; i < n1; i++ {
			gyi := FromSlice(gy.data[i*oc*oh*ow:(i+1)*oc*oh*ow], oc, oh, ow)
			gcol := Im2Col(gyi, o) // [kk, h*w]
			xi := x.data[i*c*h*w : (i+1)*c*h*w]
			if dw != nil {
				if dwParts != nil {
					part := make([]float32, c*kk)
					Gemm(false, true, c, kk, h*w, 1, xi, gcol.data, 0, part)
					dwParts[i] = part
				} else {
					// dW[c, kk] += x[c, h*w] · gcolᵀ
					Gemm(false, true, c, kk, h*w, 1, xi, gcol.data, 1, dw.data)
				}
			}
			// dx = W · gcol
			Gemm(false, false, c, h*w, kk, 1, wmat.data, gcol.data, 0, dx.data[i*c*h*w:(i+1)*c*h*w])
		}
	})
	for _, part := range dwParts {
		for e, v := range part {
			dw.data[e] += v
		}
	}
	if db != nil {
		accumChannelBiasGrad(gy, db)
	}
	return dx
}

func addChannelBias(t, bias *Tensor) {
	n, c := t.shape[0], t.shape[1]
	if n == 0 || c == 0 {
		return
	}
	plane := t.Size() / (n * c)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			b := bias.data[ch]
			seg := t.data[(i*c+ch)*plane : (i*c+ch+1)*plane]
			for j := range seg {
				seg[j] += b
			}
		}
	}
}

func accumChannelBiasGrad(gy, db *Tensor) {
	n, c := gy.shape[0], gy.shape[1]
	if n == 0 || c == 0 {
		return
	}
	plane := gy.Size() / (n * c)
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			seg := gy.data[(i*c+ch)*plane : (i*c+ch+1)*plane]
			var s float32
			for _, v := range seg {
				s += v
			}
			db.data[ch] += s
		}
	}
}

// MaxPool2D applies K×K max pooling with the given stride to x [N,C,H,W]
// and returns the pooled tensor plus the argmax index (into the flat input
// plane) for each output element, used by MaxPool2DBackward.
func MaxPool2D(x *Tensor, kernel, stride int) (*Tensor, []int32) {
	if kernel <= 0 || stride <= 0 {
		panic("tensor: MaxPool2D requires positive kernel and stride")
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := (h-kernel)/stride + 1
	ow := (w-kernel)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: MaxPool2D output empty for input %dx%d kernel %d stride %d", h, w, kernel, stride))
	}
	out := New(n, c, oh, ow)
	arg := make([]int32, out.Size())
	maxPool2DInto(x.data, n, c, h, w, kernel, stride, out.data, arg)
	return out, arg
}

// maxPool2DInto is the shared pooling core: it fills od (and arg when
// non-nil) for an input plane set [n,c,h,w]. Every (batch, channel)
// plane pools independently into its own output slice, so planes spread
// across the worker pool. The scan order within a plane is unchanged,
// preserving the first-maximum tie-break.
func maxPool2DInto(xd []float32, n, c, h, w, kernel, stride int, od []float32, arg []int32) {
	oh := (h-kernel)/stride + 1
	ow := (w-kernel)/stride + 1
	perPlane := oh * ow * kernel * kernel
	// Direct call when serial: creating the closure for parallel.For would
	// heap-allocate on every pool layer (see gemmPacked for the rationale).
	if parallel.Workers() == 1 {
		poolPlanes(xd, h, w, kernel, stride, od, arg, 0, n*c)
		return
	}
	parallel.For(n*c, parallel.GrainFor(perPlane, convMinChunkWork), func(p0, p1 int) {
		poolPlanes(xd, h, w, kernel, stride, od, arg, p0, p1)
	})
}

// poolPlanes pools (batch, channel) planes [p0, p1): the inference
// 2×2/stride-2 window — the only pooling the model infers — with
// AVX-512 where the host has it (maxPool2x2Vector), everything else,
// training's argmax bookkeeping included, in maxPoolPlanes.
func poolPlanes(xd []float32, h, w, kernel, stride int, od []float32, arg []int32, p0, p1 int) {
	if arg == nil && kernel == 2 && stride == 2 && maxPool2x2Vector(xd, h, w, od, p0, p1) {
		return
	}
	maxPoolPlanes(xd, h, w, kernel, stride, od, arg, p0, p1)
}

// maxPoolPlanes pools (batch, channel) planes [p0, p1) in Go, the bit
// reference of maxPool2x2Vector.
func maxPoolPlanes(xd []float32, h, w, kernel, stride int, od []float32, arg []int32, p0, p1 int) {
	oh := (h-kernel)/stride + 1
	ow := (w-kernel)/stride + 1
	for p := p0; p < p1; p++ {
		plane := xd[p*h*w : (p+1)*h*w]
		oi := p * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(-1e30)
				bestIdx := int32(0)
				for ky := 0; ky < kernel; ky++ {
					sy := oy*stride + ky
					rowOff := sy * w
					for kx := 0; kx < kernel; kx++ {
						sx := ox*stride + kx
						if v := plane[rowOff+sx]; v > best {
							best = v
							bestIdx = int32(rowOff + sx)
						}
					}
				}
				od[oi] = best
				if arg != nil {
					arg[oi] = bestIdx
				}
				oi++
			}
		}
	}
}

// MaxPool2DBackward routes the upstream gradient gy back to the argmax
// positions recorded by MaxPool2D.
func MaxPool2DBackward(gy *Tensor, arg []int32, n, c, h, w, oh, ow int) *Tensor {
	dx := New(n, c, h, w)
	gi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			plane := dx.data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
			for j := 0; j < oh*ow; j++ {
				plane[arg[gi]] += gy.data[gi]
				gi++
			}
		}
	}
	return dx
}

// ConcatChannels concatenates NCHW tensors along the channel axis. All
// inputs must agree on N, H and W.
func ConcatChannels(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatChannels needs at least one input")
	}
	n, h, w := ts[0].shape[0], ts[0].shape[2], ts[0].shape[3]
	totalC := 0
	for _, t := range ts {
		if t.shape[0] != n || t.shape[2] != h || t.shape[3] != w {
			panic(fmt.Sprintf("tensor: ConcatChannels mismatch %v vs %v", ts[0].shape, t.shape))
		}
		totalC += t.shape[1]
	}
	out := New(n, totalC, h, w)
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

// SplitChannels is the inverse of ConcatChannels: it slices t [N,C,H,W]
// into tensors with the given channel counts (which must sum to C).
func SplitChannels(t *Tensor, channels ...int) []*Tensor {
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	sum := 0
	for _, ci := range channels {
		sum += ci
	}
	if sum != c {
		panic(fmt.Sprintf("tensor: SplitChannels counts %v do not sum to %d", channels, c))
	}
	plane := h * w
	outs := make([]*Tensor, len(channels))
	for k, ci := range channels {
		outs[k] = New(n, ci, h, w)
	}
	for i := 0; i < n; i++ {
		off := i * c * plane
		for k, ci := range channels {
			copy(outs[k].data[i*ci*plane:(i+1)*ci*plane], t.data[off:off+ci*plane])
			off += ci * plane
		}
	}
	return outs
}
