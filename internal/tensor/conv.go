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

// Conv2DBackward computes the gradients of a Conv2DInfer application given
// the upstream gradient gy [N, OC, OH, OW]. It returns dx and accumulates into
// dw [OC,C,K,K] and db [OC] when they are non-nil.
//
// dx is the transposed convolution of gy with the same weights, run by
// the deconvolution's forward kernel at the input's extent: under a
// stride above 1 several input extents share one output extent, so the
// extent cannot be derived from gy.
func Conv2DBackward(x, wgt, gy, dw, db *Tensor, o ConvOpts) (dx *Tensor) {
	if dw != nil {
		weightGrad(dw, gy, x, o)
	}
	if db != nil {
		accumChannelBiasGrad(gy, db)
	}
	return deconv2DInto(nil, gy, wgt, o, Epilogue{}, x.shape[2], x.shape[3])
}

// Deconv2DBackward computes gradients for Deconv2DInfer. gy has the
// output shape [N, OC, OH, OW]; it returns dx [N,C,H,W] and accumulates
// dw/db when non-nil. dx is the convolution of gy with the deconv
// weights [C, OC, K, K], which are exactly that conv's weights.
func Deconv2DBackward(x, wgt, gy, dw, db *Tensor, o ConvOpts) (dx *Tensor) {
	if dw != nil {
		weightGrad(dw, x, gy, o)
	}
	if db != nil {
		accumChannelBiasGrad(gy, db)
	}
	return Conv2DInfer(nil, gy, wgt, o, Epilogue{})
}

// weightGrad accumulates Σ_i a_i · Im2Col(img_i)ᵀ into dw [M, C·K·K]
// for a [N, M, P, Q] and img [N, C, H, W] whose lowering has P·Q
// columns: the conv weight gradient with a = gy and img = x, the deconv
// one with a = x and img = gy. Batch items are independent except for
// the dw accumulation. Each item therefore computes its contribution
// into a private buffer and the contributions are reduced in batch
// order afterwards — the same one-add-per-item-per-element sequence as
// a serial dw += a·colᵀ loop, so results stay bit-identical for every
// worker count. A single item accumulates straight into dw.
func weightGrad(dw, a, img *Tensor, o ConvOpts) {
	n, m, plane := a.shape[0], a.shape[1], a.shape[2]*a.shape[3]
	c, h, w := img.shape[1], img.shape[2], img.shape[3]
	kk := c * o.Kernel * o.Kernel
	var parts [][]float32
	if n > 1 {
		parts = make([][]float32, n)
	}
	parallel.For(n, 1, func(n0, n1 int) {
		for i := n0; i < n1; i++ {
			col := Im2Col(FromSlice(img.data[i*c*h*w:(i+1)*c*h*w], c, h, w), o)
			ai := a.data[i*m*plane : (i+1)*m*plane]
			if parts == nil {
				Gemm(false, true, m, kk, plane, 1, ai, col.data, 1, dw.data)
				continue
			}
			parts[i] = make([]float32, m*kk)
			Gemm(false, true, m, kk, plane, 1, ai, col.data, 0, parts[i])
		}
	})
	for _, part := range parts {
		for e, v := range part {
			dw.data[e] += v
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

// SplitChannels is the inverse of ConcatChannelsInfer: it slices t
// [N,C,H,W] into tensors with the given channel counts (which must sum
// to C).
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
