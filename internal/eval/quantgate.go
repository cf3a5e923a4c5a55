package eval

import (
	"fmt"
	"time"

	"rhsd/internal/dataset"
	"rhsd/internal/hsd"
	"rhsd/internal/litho"
	"rhsd/internal/metrics"
	"rhsd/internal/tensor"
)

// The int8 accuracy-delta gate: quantized inference is only worth
// shipping if it is effectively free in accuracy terms. The gate runs
// the Table-1 protocol twice on one trained model — float32 and int8 —
// and fails when the quantized path loses more recall or gains more
// false alarms than the budget allows.

// QuantGateBudget bounds how far the int8 path may drift from float32.
type QuantGateBudget struct {
	// MaxRecallDropPts is the largest tolerated drop in detection
	// accuracy (recall), in percentage points, aggregated over all
	// cases. An int8 *gain* never fails the gate.
	MaxRecallDropPts float64
	// MaxFADeltaFrac is the largest tolerated relative increase in
	// false alarms (0.02 = +2%). With zero float32 false alarms, any
	// tolerated absolute increase must come from MaxFASlack.
	MaxFADeltaFrac float64
	// MaxFASlack is the absolute false-alarm headroom added on top of
	// the relative budget — keeps the gate meaningful when the float32
	// baseline has very few (or zero) false alarms.
	MaxFASlack int
}

// DefaultQuantGateBudget is the shipping bar: within half a point of
// recall and 2% (+1 absolute) of false alarms.
func DefaultQuantGateBudget() QuantGateBudget {
	return QuantGateBudget{MaxRecallDropPts: 0.5, MaxFADeltaFrac: 0.02, MaxFASlack: 1}
}

// The gate's evidence floors. Below either, the comparison cannot show
// a loss: a model that finds nothing in fp32 has no recall to lose, and
// a handful of hotspots cannot resolve half a point. Such a run is
// inconclusive, which fails like an over-budget drift.
const (
	quantGateMinRecallFP32 = 0.5
	quantGateMinHotspots   = 100
)

// QuantGateResult is the gate's verdict with the evidence behind it.
type QuantGateResult struct {
	Budget QuantGateBudget
	// FP32 and Int8 aggregate the Table-1 outcome over all cases.
	FP32, Int8 metrics.Outcome
	// RecallDropPts is fp32 recall − int8 recall in percentage points
	// (positive = int8 lost recall).
	RecallDropPts float64
	// FADelta is int8 false alarms − fp32 false alarms.
	FADelta int
	// Speedup is fp32 wall-clock / int8 wall-clock over the evaluation.
	Speedup float64
	// CalibrationRasters is how many oracle-labeled regions fed the
	// activation-range sweep.
	CalibrationRasters int
	Pass               bool
	// Inconclusive marks a run below the gate's evidence floors. It
	// never passes.
	Inconclusive bool
	Reasons      []string // populated when Pass is false
}

// Verdict is "PASS", "FAIL" or "INCONCLUSIVE".
func (r *QuantGateResult) Verdict() string {
	switch {
	case r.Inconclusive:
		return "INCONCLUSIVE"
	case r.Pass:
		return "PASS"
	default:
		return "FAIL"
	}
}

// QuantGateCheck scores an fp32/int8 outcome pair against the budget.
// Pure function — the testable core of the gate.
func QuantGateCheck(fp32, i8 metrics.Outcome, b QuantGateBudget) QuantGateResult {
	r := QuantGateResult{Budget: b, FP32: fp32, Int8: i8}
	r.RecallDropPts = (fp32.Accuracy() - i8.Accuracy()) * 100
	r.FADelta = i8.FalseAlarms - fp32.FalseAlarms
	if i8.Elapsed > 0 {
		r.Speedup = float64(fp32.Elapsed) / float64(i8.Elapsed)
	}
	r.Pass = true
	if fp32.GroundTruth < quantGateMinHotspots || fp32.Accuracy() < quantGateMinRecallFP32 {
		r.Pass = false
		r.Inconclusive = true
		r.Reasons = append(r.Reasons, fmt.Sprintf(
			"inconclusive: fp32 recall %.2f%% on %d ground-truth hotspots is under the floor (%.0f%% on %d)",
			fp32.Accuracy()*100, fp32.GroundTruth, quantGateMinRecallFP32*100, quantGateMinHotspots))
	}
	if r.RecallDropPts > b.MaxRecallDropPts {
		r.Pass = false
		r.Reasons = append(r.Reasons, fmt.Sprintf(
			"recall drop %.2f pts exceeds budget %.2f pts", r.RecallDropPts, b.MaxRecallDropPts))
	}
	faBudget := int(b.MaxFADeltaFrac*float64(fp32.FalseAlarms)) + b.MaxFASlack
	if r.FADelta > faBudget {
		r.Pass = false
		r.Reasons = append(r.Reasons, fmt.Sprintf(
			"false-alarm delta +%d exceeds budget +%d (%.0f%% of %d, +%d slack)",
			r.FADelta, faBudget, b.MaxFADeltaFrac*100, fp32.FalseAlarms, b.MaxFASlack))
	}
	return r
}

// CalibrationRasters rasterizes up to n oracle-labeled training regions
// (regions whose ground truth marks at least one hotspot) for the
// activation-range sweep. Hotspot-bearing regions exercise the risky
// geometry the detector fires on, so the calibrated ranges cover the
// activations that matter; plain regions are used only when labeled
// ones run out.
func CalibrationRasters(cfg hsd.Config, regions []*dataset.Region, n int) []*tensor.Tensor {
	if n <= 0 {
		n = 4
	}
	var out []*tensor.Tensor
	for _, r := range regions {
		if len(out) >= n {
			return out
		}
		if len(r.HotspotPoints()) > 0 {
			out = append(out, hsd.MakeSample(r.Layout, nil, cfg).Raster)
		}
	}
	for _, r := range regions {
		if len(out) >= n {
			break
		}
		if len(r.HotspotPoints()) == 0 {
			out = append(out, hsd.MakeSample(r.Layout, nil, cfg).Raster)
		}
	}
	return out
}

// SyntheticCalibration generates oracle-labeled calibration rasters at
// the configuration's region scale from the synthetic benchmark
// generator — what the CLIs use to arm the int8 path when no training
// data is at hand. The generator's hotspot labels are the oracle, so
// the sweep covers the activations risky geometry produces.
func SyntheticCalibration(cfg hsd.Config, n int) []*tensor.Tensor {
	var regions []*dataset.Region
	for _, spec := range dataset.CaseSpecs(cfg.RegionNM()) {
		ds := dataset.Generate(spec, litho.DefaultModel(), 2, 0)
		regions = append(regions, ds.Train...)
	}
	return CalibrationRasters(cfg, regions, n)
}

// evalOursPrecision runs EvalOurs over every case under the given
// precision, on a view of m, so m itself is left as it was.
func evalOursPrecision(m *hsd.Model, data *Data, precision string) (metrics.Outcome, error) {
	v, _ := m.Clone() // a view: Clone cannot fail
	if err := v.SetPrecision(precision); err != nil {
		return metrics.Outcome{}, err
	}
	var total metrics.Outcome
	for _, ds := range data.Cases {
		total.Add(EvalOurs(v, ds.Test))
	}
	return total, nil
}

// RunQuantGate trains the profile's R-HSD model (or reuses the one an
// earlier experiment trained on data), calibrates its int8 path on
// oracle-labeled training clips, evaluates the Table-1 protocol under
// both precisions and scores the deltas against the budget. progress
// (may be nil) receives coarse status lines.
func RunQuantGate(p Profile, data *Data, b QuantGateBudget, progress func(string)) (*QuantGateResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := data.trainOurs(p.HSD, "R-HSD", progress)
	if err != nil {
		return nil, err
	}
	return QuantGateOnModel(m, data, b, progress)
}

// QuantGateOnModel runs the gate on an already-trained model (shared by
// RunQuantGate and callers that reuse a Table-1 model). The model's
// precision is left as it was found.
func QuantGateOnModel(m *hsd.Model, data *Data, b QuantGateBudget, progress func(string)) (*QuantGateResult, error) {
	say := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	cal := CalibrationRasters(m.Config, data.MergedTrain, 4)
	if len(cal) == 0 {
		return nil, fmt.Errorf("eval: no calibration rasters available")
	}
	say("calibrating int8 on %d oracle-labeled regions", len(cal))
	if err := m.CalibrateInt8(cal); err != nil {
		return nil, err
	}
	say("evaluating fp32")
	start := time.Now()
	fp32, err := evalOursPrecision(m, data, hsd.PrecisionFP32)
	if err != nil {
		return nil, err
	}
	say("fp32 done in %v; evaluating int8", time.Since(start).Round(time.Millisecond))
	int8Out, err := evalOursPrecision(m, data, hsd.PrecisionInt8)
	if err != nil {
		return nil, err
	}
	r := QuantGateCheck(fp32, int8Out, b)
	r.CalibrationRasters = len(cal)
	return &r, nil
}

// Render formats the gate verdict for CLI output.
func (r *QuantGateResult) Render() string {
	out := fmt.Sprintf("int8 accuracy gate: %s\n", r.Verdict())
	out += fmt.Sprintf("  recall  fp32 %.2f%%  int8 %.2f%%  drop %+.2f pts (budget %.2f) over %d hotspots\n",
		r.FP32.Accuracy()*100, r.Int8.Accuracy()*100, r.RecallDropPts, r.Budget.MaxRecallDropPts, r.FP32.GroundTruth)
	out += fmt.Sprintf("  false alarms  fp32 %d  int8 %d  delta %+d (budget %.0f%% +%d)\n",
		r.FP32.FalseAlarms, r.Int8.FalseAlarms, r.FADelta, r.Budget.MaxFADeltaFrac*100, r.Budget.MaxFASlack)
	if r.Speedup > 0 {
		out += fmt.Sprintf("  wall-clock  fp32 %v  int8 %v  speedup %.2f×\n",
			r.FP32.Elapsed.Round(time.Millisecond), r.Int8.Elapsed.Round(time.Millisecond), r.Speedup)
	}
	for _, reason := range r.Reasons {
		out += "  ! " + reason + "\n"
	}
	return out
}
