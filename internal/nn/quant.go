package nn

import (
	"encoding/binary"
	"io"
	"math"

	"rhsd/internal/tensor"
)

// Quantizer owns the int8 inference state of a set of module trees: a
// per-Conv2D calibrated input activation range and, once frozen, a
// per-Conv2D *tensor.QConvPlan (per-output-channel quantized weights
// pre-packed for every usable int8 kernel, plus the dequantization
// epilogue constants).
//
// Lifecycle: Observe one or more calibration inputs through each tree
// (a float32 walk that records every conv's input range), Freeze once,
// then Infer runs the same walk with each calibrated conv replaced by
// tensor.QConv2DInfer. Only Conv2D layers quantize; Deconv2D, pooling,
// activation and concatenation run float32 between quantized convs, so
// every conv consumes float32 inputs and re-quantizes against its own
// calibrated per-tensor range.
//
// Calibration (Observe, Freeze) writes the Quantizer and runs on one
// goroutine. A frozen Quantizer is read-only: Infer reads its plans and
// writes only the caller's workspace, so one Quantizer serves every
// model view that shares the calibrated layers, from any number of
// goroutines. The walk mirrors Sequential.Infer exactly — including the
// Conv/Deconv+ReLU fusion lookahead — so a Quantizer with no frozen
// plans reproduces the float32 inference path bit for bit.
type Quantizer struct {
	order  []*Conv2D // deterministic walk order, for Freeze and signatures
	ranges map[*Conv2D]*tensor.QuantRange
	plans  map[*Conv2D]*tensor.QConvPlan
	frozen bool
}

// NewQuantizer returns an empty, uncalibrated Quantizer.
func NewQuantizer() *Quantizer {
	return &Quantizer{
		ranges: make(map[*Conv2D]*tensor.QuantRange),
		plans:  make(map[*Conv2D]*tensor.QConvPlan),
	}
}

// Observe runs the float32 inference walk over l, folding each Conv2D's
// input tensor into that conv's calibration range, and returns the
// layer output (bit-identical to l's own Infer) so trees can be chained
// stage by stage. Call once per calibration sample per tree.
func (q *Quantizer) Observe(l Layer, x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	if q.frozen {
		panic("nn: Quantizer.Observe after Freeze")
	}
	return q.walk(l, x, ws, false)
}

// Freeze quantizes the weights of every observed conv per output
// channel, builds its dequantization plan from the calibrated input
// range, and arms Infer. Convs whose range never saw a finite value are
// left unquantized (they fall back to float32 in Infer).
func (q *Quantizer) Freeze() {
	for _, conv := range q.order {
		r := q.ranges[conv]
		if r == nil || !r.Observed() {
			continue
		}
		k := conv.Opts.Kernel
		kk := conv.In * k * k
		qw := tensor.NewQConvWeights(conv.Weight.W.Data(), conv.Out, kk)
		q.plans[conv] = qw.Plan(r.Params())
	}
	q.frozen = true
}

// Calibrated reports whether Freeze has run and produced at least one
// quantized conv.
func (q *Quantizer) Calibrated() bool { return q.frozen && len(q.plans) > 0 }

// NumQuantized returns the number of convs with a frozen int8 plan.
func (q *Quantizer) NumQuantized() int { return len(q.plans) }

// Infer runs the int8 inference walk over l: calibrated convs execute
// tensor.QConv2DInfer (with the same fused bias+activation epilogue the
// float32 path would use), everything else runs its float32 Infer.
func (q *Quantizer) Infer(l Layer, x *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	return q.walk(l, x, ws, true)
}

// WriteSignature writes a deterministic encoding of the calibration
// state — each quantized conv's name and input quantization parameters,
// in walk order — to w. Weight scales are omitted on purpose: they
// derive from the weights, which a weights digest already covers; the
// input ranges derive from the calibration data and are exactly what
// distinguishes two int8 models with equal weights.
func (q *Quantizer) WriteSignature(w io.Writer) {
	var buf [8]byte
	for _, conv := range q.order {
		p := q.plans[conv]
		if p == nil {
			continue
		}
		io.WriteString(w, conv.Weight.Name)
		binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(p.In.Scale))
		binary.LittleEndian.PutUint32(buf[4:], uint32(p.In.Zero))
		w.Write(buf[:])
	}
}

// walk dispatches one layer through the quantization-aware inference
// traversal. quant=false is the calibration pass (float32 compute,
// range taps before each conv); quant=true is the int8 pass.
func (q *Quantizer) walk(l Layer, x *tensor.Tensor, ws *tensor.Workspace, quant bool) *tensor.Tensor {
	switch t := l.(type) {
	case *Sequential:
		return q.walkSeq(t, x, ws, quant)
	case *ConcatBranches:
		return q.walkConcat(t, x, ws, quant)
	case *Conv2D:
		return q.conv(t, x, ws, quant, tensor.Epilogue{Bias: t.Bias.W})
	default:
		return l.Infer(x, ws)
	}
}

// walkSeq mirrors Sequential.Infer, including its Conv2D/Deconv2D+ReLU
// fusion lookahead, with conv execution routed through q.conv and
// nested containers routed back through q.walk.
func (q *Quantizer) walkSeq(s *Sequential, x *tensor.Tensor, ws *tensor.Workspace, quant bool) *tensor.Tensor {
	for i := 0; i < len(s.Layers); i++ {
		switch l := s.Layers[i].(type) {
		case *Conv2D:
			ep := tensor.Epilogue{Bias: l.Bias.W}
			if i+1 < len(s.Layers) {
				if r, ok := s.Layers[i+1].(*ReLU); ok {
					ep.Act, ep.Slope = true, r.Slope
					i++
				}
			}
			x = q.conv(l, x, ws, quant, ep)
		case *Deconv2D:
			// Deconvolutions stay float32 because the int8 path has
			// no transposed lowering yet (int8 GEMM, int32 col2im,
			// one dequantize). They are not cheap: the decoder
			// deconvs are 2.87 GF of a 256-px PaperConfig pass.
			if i+1 < len(s.Layers) {
				if r, ok := s.Layers[i+1].(*ReLU); ok {
					x = l.inferFused(x, ws, r.Slope)
					i++
					continue
				}
			}
			x = l.Infer(x, ws)
		case *Sequential:
			x = q.walkSeq(l, x, ws, quant)
		case *ConcatBranches:
			x = q.walkConcat(l, x, ws, quant)
		default:
			x = s.Layers[i].Infer(x, ws)
		}
	}
	return x
}

// walkConcat mirrors ConcatBranches.Infer, branch outputs on the stack
// included, with branches routed through q.walk.
func (q *Quantizer) walkConcat(l *ConcatBranches, x *tensor.Tensor, ws *tensor.Workspace, quant bool) *tensor.Tensor {
	var buf [4]*tensor.Tensor
	outs := buf[:0]
	for _, b := range l.Branches {
		outs = append(outs, q.walk(b, x, ws, quant))
	}
	return tensor.ConcatChannelsInfer(ws, outs...)
}

// conv executes one convolution under the traversal: on the calibration
// pass it taps the input range then runs float32; on the int8 pass it
// runs the quantized conv when a plan exists, float32 otherwise.
func (q *Quantizer) conv(l *Conv2D, x *tensor.Tensor, ws *tensor.Workspace, quant bool, ep tensor.Epilogue) *tensor.Tensor {
	if quant {
		if plan := q.plans[l]; plan != nil {
			return tensor.QConv2DInfer(ws, x, plan, l.Opts, ep)
		}
		return tensor.Conv2DInfer(ws, x, l.Weight.W, l.Opts, ep)
	}
	q.rangeFor(l).ObserveSlice(x.Data())
	return tensor.Conv2DInfer(ws, x, l.Weight.W, l.Opts, ep)
}

// rangeFor returns the calibration range of conv l, registering it in
// walk order on first sight.
func (q *Quantizer) rangeFor(l *Conv2D) *tensor.QuantRange {
	r := q.ranges[l]
	if r == nil {
		r = new(tensor.QuantRange)
		q.ranges[l] = r
		q.order = append(q.order, l)
	}
	return r
}
