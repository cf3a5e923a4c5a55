package nn

import (
	"rhsd/internal/tensor"
)

// Infer is the allocation-free forward path of every Layer: it computes
// the same values as Forward but draws all output and scratch memory
// from the caller's Workspace, caches nothing for Backward and writes
// nothing to the layer — so one layer tree may serve Infer calls from
// several goroutines at once, each with its own workspace, as long as no
// weight mutation overlaps them. Returned tensors are valid until the
// workspace's next Reset.
//
// Sequential.Infer additionally fuses Conv2D/Deconv2D + ReLU pairs into a
// single output sweep via tensor.Epilogue; the fused sequence performs
// the identical add-then-scale arithmetic, so Infer and Forward agree bit
// for bit (pinned by TestInferMatchesForward).

// Infer runs the convolution with its bias fused into the output sweep.
func (l *Conv2D) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	return tensor.Conv2DInfer(ws, x, l.Weight.W, l.Opts, tensor.Epilogue{Bias: l.Bias.W})
}

// inferFused additionally folds a trailing leaky ReLU into the sweep.
func (l *Conv2D) inferFused(x *tensor.Tensor, ws *tensor.Workspace, slope float32) *tensor.Tensor {
	return tensor.Conv2DInfer(ws, x, l.Weight.W, l.Opts,
		tensor.Epilogue{Bias: l.Bias.W, Act: true, Slope: slope})
}

// Infer runs the transposed convolution with fused bias.
func (l *Deconv2D) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	return tensor.Deconv2DInfer(ws, x, l.Weight.W, l.Opts, tensor.Epilogue{Bias: l.Bias.W})
}

func (l *Deconv2D) inferFused(x *tensor.Tensor, ws *tensor.Workspace, slope float32) *tensor.Tensor {
	return tensor.Deconv2DInfer(ws, x, l.Weight.W, l.Opts,
		tensor.Epilogue{Bias: l.Bias.W, Act: true, Slope: slope})
}

// Infer pools without recording argmax indices.
func (l *MaxPool2D) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	return tensor.MaxPool2DInfer(ws, x, l.Kernel, l.Stride)
}

// Infer applies the activation into workspace memory, leaving the input
// and the layer's backward mask untouched.
func (l *ReLU) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	y := ws.Tensor(x.Shape()...)
	yd, xd := y.Data(), x.Data()
	for i, v := range xd {
		if v > 0 {
			yd[i] = v
		} else {
			yd[i] = v * l.Slope
		}
	}
	return y
}

// Infer reshapes through a workspace view without caching the input shape
// (Backward is never called on the inference path).
func (l *Flatten) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	n := x.Dim(0)
	return ws.View(x.Data(), n, x.Size()/n)
}

// Infer computes x·W + b into workspace memory. When PackWeights has
// armed the prepacked weight view it multiplies against that —
// bit-identical to the per-call Gemm (tensor.GemmPreB's contract), just
// without repacking the constant W every call.
func (l *Dense) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	n := x.Dim(0)
	y := ws.Tensor(n, l.Out)
	if l.packed != nil {
		tensor.GemmPreBScoped(ws.ProfileScope(), false, n, l.Out, l.In, 1, x.Data(), l.packed, 0, y.Data())
	} else {
		tensor.Gemm(false, false, n, l.Out, l.In, 1, x.Data(), l.Weight.W.Data(), 0, y.Data())
	}
	bd := l.Bias.W.Data()
	for i := 0; i < n; i++ {
		row := y.Data()[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return y
}

// Infer chains the layers' inference paths, fusing each Conv2D/Deconv2D
// with an immediately following ReLU into one kernel with a fused
// bias+activation epilogue.
func (s *Sequential) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	for i := 0; i < len(s.Layers); i++ {
		switch l := s.Layers[i].(type) {
		case *Conv2D:
			if i+1 < len(s.Layers) {
				if r, ok := s.Layers[i+1].(*ReLU); ok {
					x = l.inferFused(x, ws, r.Slope)
					i++
					continue
				}
			}
			x = l.Infer(x, ws)
		case *Deconv2D:
			if i+1 < len(s.Layers) {
				if r, ok := s.Layers[i+1].(*ReLU); ok {
					x = l.inferFused(x, ws, r.Slope)
					i++
					continue
				}
			}
			x = l.Infer(x, ws)
		default:
			x = s.Layers[i].Infer(x, ws)
		}
	}
	return x
}

// Infer runs every branch on x and concatenates along channels. The
// branch outputs are collected on the stack (the paper's inception
// modules have at most four branches; append spills a wider module to
// the heap), so the layer itself holds no inference scratch.
func (l *ConcatBranches) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	var buf [4]*tensor.Tensor
	outs := buf[:0]
	for _, b := range l.Branches {
		outs = append(outs, b.Infer(x, ws))
	}
	return tensor.ConcatChannelsInfer(ws, outs...)
}
