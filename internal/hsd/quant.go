package hsd

import (
	"errors"
	"fmt"

	"rhsd/internal/nn"
	"rhsd/internal/tensor"
)

// Numeric precision of the detection trunk. The default is float32;
// int8 must be armed by CalibrateInt8 before it can be selected.
const (
	PrecisionFP32 = "fp32"
	PrecisionInt8 = "int8"
)

// CalibrateInt8 calibrates the int8 trunk on the given rasters
// (typically oracle-labeled clip regions drawn from training layouts —
// see eval.CalibrationRasters): each raster runs a float32 pass that
// records every trunk conv's input activation range, then the trunk
// weights are quantized per output channel and the dequantization plans
// frozen. Calibration does not switch the model to int8: call
// SetPrecision(PrecisionInt8) after, or scan with a ScanRequest whose
// Precision is PrecisionInt8. Re-calibrating replaces the previous
// state of this view; clones made earlier keep theirs, while scan
// workers take the new one at their next scan. The model's weights must
// not change afterwards (Load or a training step invalidates the
// plans); recalibrate after any weight mutation.
//
// The int8 path covers the convolutional trunk from the stem through
// the inception chain. The CPN heads and the refinement stage stay
// float32 — their outputs are scores and box offsets, where
// quantization error moves detections directly rather than washing out
// across channels.
func (m *Model) CalibrateInt8(rasters []*tensor.Tensor) error {
	if len(rasters) == 0 {
		return errors.New("hsd: CalibrateInt8 needs at least one calibration raster")
	}
	q := nn.NewQuantizer()
	for _, x := range rasters {
		if x.Rank() != 4 || x.Dim(0) != 1 || x.Dim(1) != InputChannels ||
			x.Dim(2) <= 0 || x.Dim(2)%FeatureStride != 0 ||
			x.Dim(3) <= 0 || x.Dim(3)%FeatureStride != 0 {
			return fmt.Errorf("hsd: calibration raster %v, want [1 %d 8k 8k]",
				x.Shape(), InputChannels)
		}
		m.ws.Reset()
		out := q.Observe(m.Stem, x, m.ws)
		out = q.Observe(m.Backbone, out, m.ws)
		out = q.Observe(m.EncDec, out, m.ws)
		q.Observe(m.Inception, out, m.ws)
	}
	q.Freeze()
	if !q.Calibrated() {
		return errors.New("hsd: calibration produced no quantized convolutions")
	}
	m.quant = q
	return nil
}

// SetPrecision selects the view's trunk numeric path — the one Detect,
// InferBase, the unchecked layout scans and a ScanRequest without a
// Precision run at: PrecisionFP32 (or "") restores float32,
// PrecisionInt8 requires a prior CalibrateInt8. The precision is per
// view: clones keep their own.
func (m *Model) SetPrecision(p string) error {
	if p == "" {
		p = PrecisionFP32
	}
	prec, err := m.passPrecision(p)
	if err != nil {
		return err
	}
	m.precision = prec
	return nil
}

// passPrecision resolves the numeric path one pass runs at: "" is the
// view's own, and int8 needs CalibrateInt8 first. Its errors are tagged
// ErrBadInput.
func (m *Model) passPrecision(p string) (string, error) {
	switch p {
	case "":
		return m.Precision(), nil
	case PrecisionFP32:
		return p, nil
	case PrecisionInt8:
		if !m.Int8Calibrated() {
			return "", badInputf("hsd: int8 precision requires CalibrateInt8 first")
		}
		return p, nil
	}
	return "", badInputf("hsd: unknown precision %q (want %q or %q)", p, PrecisionFP32, PrecisionInt8)
}

// Precision returns the trunk's active numeric path.
func (m *Model) Precision() string {
	if m.precision == "" {
		return PrecisionFP32
	}
	return m.precision
}

// Int8Calibrated reports whether the int8 path is armed (CalibrateInt8
// has run), regardless of the currently selected precision.
func (m *Model) Int8Calibrated() bool { return m.quant != nil && m.quant.Calibrated() }

// stageInfer runs one trunk stage on the numeric path prec.
func (m *Model) stageInfer(s *nn.Sequential, x *tensor.Tensor, prec string) *tensor.Tensor {
	if prec == PrecisionInt8 && m.quant != nil {
		return m.quant.Infer(s, x, m.ws)
	}
	return s.Infer(x, m.ws)
}
