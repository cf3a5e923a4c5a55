package tensor

import (
	"fmt"

	"rhsd/internal/parallel"
)

// QConv2DInfer is Conv2DInfer on the int8 path: the input activations
// are quantized per-tensor to uint8 (pooled scratch, not workspace —
// the Workspace arena is float32-only), B panels are packed straight
// from the quantized image (im2col stays fused, never materialized),
// the weights come pre-packed from the plan, and the epilogue fuses
// dequantization with the bias + leaky-ReLU tail. Output is float32 in
// workspace memory, same contract as Conv2DInfer.
func QConv2DInfer(ws *Workspace, x *Tensor, plan *QConvPlan, o ConvOpts, ep Epilogue) *Tensor {
	o.check()
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oc, kk := plan.W.OC, plan.W.KK
	if kk != c*o.Kernel*o.Kernel {
		panic(fmt.Sprintf("tensor: QConv2DInfer plan k=%d incompatible with input %v opts %+v",
			kk, x.shape, o))
	}
	oh, ow := o.OutDim(h), o.OutDim(w)
	out := ws.Tensor(n, oc, oh, ow)

	kr := qgemmKernels.active.Load()
	pa := plan.W.packed[kr.name]
	if pa == nil {
		panic(fmt.Sprintf("tensor: QConv2DInfer weights not packed for int8 kernel %q", kr.name))
	}

	xq := qbytePool.get(n * c * h * w)
	sc := ws.ProfileScope()
	plan.In.quantizeSliceScoped(sc, xq, x.data)

	var bias []float32
	if ep.Bias != nil {
		bias = ep.Bias.data
	}
	qep := qepilogue{
		deqScale: plan.DeqScale,
		corr:     plan.Corr,
		bias:     bias,
		act:      ep.Act,
		slope:    ep.Slope,
	}
	if n == 1 || parallel.Workers() == 1 {
		qconv2dInferItems(kr, sc, xq, pa, out.data, c, h, w, oc, kk, o, plan.In.Zero, qep, 0, n)
	} else {
		parallel.For(n, 1, func(n0, n1 int) {
			qconv2dInferItems(kr, sc, xq, pa, out.data, c, h, w, oc, kk, o, plan.In.Zero, qep, n0, n1)
		})
	}
	qbytePool.put(xq)
	return out
}

// qconv2dInferItems multiplies batch items [n0, n1) with B panels
// packed directly from each quantized image.
func qconv2dInferItems(kr *qgemmKernel, sc *ProfileScope, xq []uint8, pa []int8, od []float32, c, h, w, oc, kk int, o ConvOpts, zero uint8, qep qepilogue, n0, n1 int) {
	oh, ow := o.OutDim(h), o.OutDim(w)
	for i := n0; i < n1; i++ {
		bs := qim2colB(xq[i*c*h*w:(i+1)*c*h*w], c, h, w, o, zero)
		dst := od[i*oc*oh*ow : (i+1)*oc*oh*ow]
		qgemmPackedScoped(kr, sc, oc, oh*ow, kk, pa, bs, qep, dst)
	}
}
