// Package nn is a small layer-based neural-network framework with manual
// backpropagation, sufficient to train the R-HSD detector of Chen et al.
// (DAC 2019) and its baselines end-to-end on CPU.
//
// Layers are stateful: Forward caches whatever Backward needs, so a layer
// instance must not be shared between concurrently-trained models. The
// framework covers exactly the operator set the paper uses — convolution,
// deconvolution ("decoder"), max pooling, ReLU, fully-connected heads,
// softmax cross-entropy, smooth L1 — plus the Inception-style multi-branch
// concatenation of §3.1.2.
package nn

import (
	"fmt"
	"math/rand"

	"rhsd/internal/tensor"
)

// Param is a trainable tensor together with its accumulated gradient.
type Param struct {
	Name  string
	W     *tensor.Tensor
	Grad  *tensor.Tensor
	NoReg bool // biases are conventionally excluded from L2 regularization
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// Layer is a differentiable module. Forward consumes an activation and
// caches state; Backward consumes dL/d(output) and returns dL/d(input),
// accumulating parameter gradients along the way. Infer is the
// allocation-free forward path (infer.go): it writes nothing to the
// layer, so one layer may serve Infer calls from many goroutines. The
// layers with weights (Conv2D, Deconv2D, Dense) compute Forward by
// caching their input and calling Infer with a nil workspace, so each
// layer's forward arithmetic exists once.
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(gy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor
}

// ---------------------------------------------------------------------------
// Convolution

// Conv2D is a 2-D convolution layer over NCHW tensors.
type Conv2D struct {
	In, Out int
	Opts    tensor.ConvOpts
	Weight  *Param
	Bias    *Param

	x *tensor.Tensor // cached input
}

// NewConv2D creates a He-initialized convolution layer.
func NewConv2D(name string, in, out, kernel, stride, padding int, rng *rand.Rand) *Conv2D {
	l := &Conv2D{
		In:     in,
		Out:    out,
		Opts:   tensor.ConvOpts{Kernel: kernel, Stride: stride, Padding: padding},
		Weight: newParam(name+".w", out, in, kernel, kernel),
		Bias:   newParam(name+".b", out),
	}
	l.Bias.NoReg = true
	l.Weight.W.HeInit(rng, in*kernel*kernel)
	return l
}

func (l *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	return l.Infer(x, nil)
}

func (l *Conv2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return tensor.Conv2DBackward(l.x, l.Weight.W, gy, l.Weight.Grad, l.Bias.Grad, l.Opts)
}

func (l *Conv2D) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Deconv2D is a transposed convolution, the decoder half of the paper's
// encoder-decoder feature extractor (§3.1.1).
type Deconv2D struct {
	In, Out int
	Opts    tensor.ConvOpts
	Weight  *Param // [In, Out, K, K]
	Bias    *Param

	x *tensor.Tensor
}

// NewDeconv2D creates a He-initialized transposed-convolution layer.
func NewDeconv2D(name string, in, out, kernel, stride, padding int, rng *rand.Rand) *Deconv2D {
	l := &Deconv2D{
		In:     in,
		Out:    out,
		Opts:   tensor.ConvOpts{Kernel: kernel, Stride: stride, Padding: padding},
		Weight: newParam(name+".w", in, out, kernel, kernel),
		Bias:   newParam(name+".b", out),
	}
	l.Bias.NoReg = true
	l.Weight.W.HeInit(rng, in*kernel*kernel)
	return l
}

func (l *Deconv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	return l.Infer(x, nil)
}

func (l *Deconv2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return tensor.Deconv2DBackward(l.x, l.Weight.W, gy, l.Weight.Grad, l.Bias.Grad, l.Opts)
}

func (l *Deconv2D) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// ---------------------------------------------------------------------------
// Pooling, activation, reshaping

// MaxPool2D is a max-pooling layer.
type MaxPool2D struct {
	Kernel, Stride int

	arg        []int32
	n, c, h, w int
	oh, ow     int
}

// NewMaxPool2D creates a max-pooling layer.
func NewMaxPool2D(kernel, stride int) *MaxPool2D {
	return &MaxPool2D{Kernel: kernel, Stride: stride}
}

func (l *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	l.n, l.c, l.h, l.w = s[0], s[1], s[2], s[3]
	y, arg := tensor.MaxPool2D(x, l.Kernel, l.Stride)
	l.arg = arg
	l.oh, l.ow = y.Dim(2), y.Dim(3)
	return y
}

func (l *MaxPool2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPool2DBackward(gy, l.arg, l.n, l.c, l.h, l.w, l.oh, l.ow)
}

func (l *MaxPool2D) Params() []*Param { return nil }

// ReLU is the rectified-linear activation, optionally leaky: negative
// inputs are scaled by Slope instead of zeroed. A small slope prevents the
// "dying ReLU" collapse that small networks trained with momentum are
// prone to.
type ReLU struct {
	Slope float32

	mask []bool
}

// NewReLU creates a plain (slope-0) ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// NewLeakyReLU creates a leaky ReLU with the given negative slope.
func NewLeakyReLU(slope float64) *ReLU { return &ReLU{Slope: float32(slope)} }

func (l *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := x.Clone()
	if cap(l.mask) < y.Size() {
		l.mask = make([]bool, y.Size())
	}
	l.mask = l.mask[:y.Size()]
	for i, v := range y.Data() {
		if v > 0 {
			l.mask[i] = true
		} else {
			l.mask[i] = false
			y.Data()[i] = v * l.Slope
		}
	}
	return y
}

func (l *ReLU) Backward(gy *tensor.Tensor) *tensor.Tensor {
	dx := gy.Clone()
	for i := range dx.Data() {
		if !l.mask[i] {
			dx.Data()[i] *= l.Slope
		}
	}
	return dx
}

func (l *ReLU) Params() []*Param { return nil }

// Flatten reshapes [N, ...] to [N, F], remembering the input shape.
type Flatten struct {
	shape []int
}

// NewFlatten creates a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

func (l *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.shape = append(l.shape[:0], x.Shape()...)
	n := x.Dim(0)
	return x.Reshape(n, x.Size()/n)
}

func (l *Flatten) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return gy.Reshape(l.shape...)
}

func (l *Flatten) Params() []*Param { return nil }

// ---------------------------------------------------------------------------
// Dense

// Dense is a fully-connected layer over [N, In] activations.
type Dense struct {
	In, Out int
	Weight  *Param // [In, Out]
	Bias    *Param // [Out]

	x *tensor.Tensor

	// packed is the prepacked weight view Infer multiplies against
	// (tensor.PackB); nil until PackWeights arms it. It is a derived
	// cache of Weight.W: Backward — the first step of every weight
	// mutation — drops it, and the model-level owner re-arms it at each
	// mutation point (see hsd.Model.packInferWeights, DESIGN §17).
	packed *tensor.PackedB
}

// NewDense creates a He-initialized fully-connected layer.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	l := &Dense{
		In:     in,
		Out:    out,
		Weight: newParam(name+".w", in, out),
		Bias:   newParam(name+".b", out),
	}
	l.Bias.NoReg = true
	l.Weight.W.HeInit(rng, in)
	return l
}

func (l *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Dense(%d→%d) got input %v", l.In, l.Out, x.Shape()))
	}
	l.x = x
	return l.Infer(x, nil)
}

func (l *Dense) Backward(gy *tensor.Tensor) *tensor.Tensor {
	// Training mutates the weights right after this, so any prepacked
	// view is about to go stale.
	l.packed = nil
	// dW += xᵀ·gy ; db += column sums ; dx = gy·Wᵀ
	n := gy.Dim(0)
	// xᵀ·gy lands in its own buffer before the add: a beta = 1 Gemm
	// straight into the gradient would round differently (the row kernel
	// adds each product into the running sum, the packed one each KC
	// block), so training would drift.
	dw := tensor.New(l.In, l.Out)
	tensor.Gemm(true, false, l.In, l.Out, n, 1, l.x.Data(), gy.Data(), 0, dw.Data())
	l.Weight.Grad.Add(dw)
	for i := 0; i < n; i++ {
		row := gy.Data()[i*l.Out : (i+1)*l.Out]
		for j, v := range row {
			l.Bias.Grad.Data()[j] += v
		}
	}
	dx := tensor.New(n, l.In)
	tensor.Gemm(false, true, n, l.In, l.Out, 1, gy.Data(), l.Weight.W.Data(), 0, dx.Data())
	return dx
}

func (l *Dense) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// PackWeights (re)builds the prepacked weight view Infer uses. Call it
// after any in-place weight mutation (load, clone, optimizer step);
// calling it redundantly is cheap relative to inference but not free,
// so owners batch it at their mutation points rather than per call.
func (l *Dense) PackWeights() {
	l.packed = tensor.PackB(false, l.In, l.Out, l.Weight.W.Data())
}

// ---------------------------------------------------------------------------
// Composition

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Append adds more layers.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

func (s *Sequential) Backward(gy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gy = s.Layers[i].Backward(gy)
	}
	return gy
}

func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ConcatBranches runs several branch stacks on the same input and
// concatenates their outputs along the channel axis — the feature-fusion
// rule of the paper's Inception modules (§3.1.2). All branches must produce
// equal spatial dimensions.
type ConcatBranches struct {
	Branches []Layer

	outC []int
}

// NewConcatBranches builds a multi-branch concat container.
func NewConcatBranches(branches ...Layer) *ConcatBranches {
	return &ConcatBranches{Branches: branches}
}

func (l *ConcatBranches) Forward(x *tensor.Tensor) *tensor.Tensor {
	outs := make([]*tensor.Tensor, len(l.Branches))
	l.outC = l.outC[:0]
	for i, b := range l.Branches {
		outs[i] = b.Forward(x)
		l.outC = append(l.outC, outs[i].Dim(1))
	}
	return tensor.ConcatChannelsInfer(nil, outs...)
}

func (l *ConcatBranches) Backward(gy *tensor.Tensor) *tensor.Tensor {
	parts := tensor.SplitChannels(gy, l.outC...)
	var dx *tensor.Tensor
	for i, b := range l.Branches {
		g := b.Backward(parts[i])
		if dx == nil {
			dx = g
		} else {
			dx.Add(g)
		}
	}
	return dx
}

func (l *ConcatBranches) Params() []*Param {
	var ps []*Param
	for _, b := range l.Branches {
		ps = append(ps, b.Params()...)
	}
	return ps
}
