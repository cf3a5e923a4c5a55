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
// workspace's next Reset. Conv2D, Deconv2D and Dense have no other
// forward kernel: their Forward caches the input and calls Infer with a
// nil workspace, which allocates.
//
// Sequential.Infer and ConcatBranches.Infer run the one layer walk,
// infer, which fuses each Conv2D/Deconv2D + ReLU pair into a single
// output sweep via tensor.Epilogue; the fused sequence performs the
// identical add-then-scale arithmetic, so Infer and the unfused
// Sequential.Forward agree bit for bit (pinned by
// TestInferMatchesForward). The int8 Quantizer runs the same walk,
// hooking in only at its conv step (quant.go).

// Infer runs the convolution with its bias fused into the output sweep.
func (l *Conv2D) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	return tensor.Conv2DInfer(ws, x, l.Weight.W, l.Opts, tensor.Epilogue{Bias: l.Bias.W})
}

// Infer runs the transposed convolution with fused bias.
func (l *Deconv2D) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	return tensor.Deconv2DInfer(ws, x, l.Weight.W, l.Opts, tensor.Epilogue{Bias: l.Bias.W})
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

// Infer chains the layers' inference paths (infer).
func (s *Sequential) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	return infer(s, x, ws, nil)
}

// Infer runs every branch on x and concatenates along channels (infer).
func (l *ConcatBranches) Infer(x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	return infer(l, x, ws, nil)
}

// infer is the one inference walk of a layer tree. A Sequential chains
// its layers, fusing each Conv2D/Deconv2D with an immediately following
// ReLU into one kernel with a fused bias+activation epilogue; a
// ConcatBranches concatenates its branches' outputs, collected on the
// stack (the paper's inception modules have at most four branches); every
// Conv2D runs through q.conv (a nil q runs float32); any other layer runs
// its own Infer. q is a pointer, not a func value, so passing it down the
// recursion allocates nothing.
func infer(l Layer, x *tensor.Tensor, ws *tensor.Workspace, q *Quantizer) *tensor.Tensor {
	switch t := l.(type) {
	case *Sequential:
		for i := 0; i < len(t.Layers); i++ {
			switch l := t.Layers[i].(type) {
			case *Conv2D:
				ep, fused := fuseReLU(t.Layers[i+1:], l.Bias.W)
				i += fused
				x = q.conv(l, x, ws, ep)
			case *Deconv2D:
				// Deconvolutions stay float32 under a Quantizer because
				// the int8 path has no transposed lowering yet (int8
				// GEMM, int32 col2im, one dequantize). They are not
				// cheap: the decoder deconvs are 2.87 GF of a 256-px
				// PaperConfig pass.
				ep, fused := fuseReLU(t.Layers[i+1:], l.Bias.W)
				i += fused
				x = tensor.Deconv2DInfer(ws, x, l.Weight.W, l.Opts, ep)
			default:
				x = infer(l, x, ws, q)
			}
		}
		return x
	case *ConcatBranches:
		var buf [4]*tensor.Tensor
		outs := buf[:0]
		for _, b := range t.Branches {
			outs = append(outs, infer(b, x, ws, q))
		}
		return tensor.ConcatChannelsInfer(ws, outs...)
	case *Conv2D:
		return q.conv(t, x, ws, tensor.Epilogue{Bias: t.Bias.W})
	default:
		return l.Infer(x, ws)
	}
}

// fuseReLU returns the epilogue of a conv or deconv with bias b, folding
// in the layer after it, rest[0], when that is a ReLU, and the number of
// layers of rest it folded in (0 or 1).
func fuseReLU(rest []Layer, b *tensor.Tensor) (tensor.Epilogue, int) {
	ep := tensor.Epilogue{Bias: b}
	if len(rest) > 0 {
		if r, ok := rest[0].(*ReLU); ok {
			ep.Act, ep.Slope = true, r.Slope
			return ep, 1
		}
	}
	return ep, 0
}
