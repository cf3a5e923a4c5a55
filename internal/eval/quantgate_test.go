package eval

import (
	"strings"
	"testing"
	"time"

	"rhsd/internal/metrics"
)

// TestQuantGateCheckPass: identical outcomes trivially pass, and small
// in-budget drifts pass too.
func TestQuantGateCheckPass(t *testing.T) {
	b := DefaultQuantGateBudget()
	fp32 := metrics.Outcome{GroundTruth: 1000, Detected: 950, FalseAlarms: 100, Elapsed: 2 * time.Second}
	r := QuantGateCheck(fp32, fp32, b)
	if !r.Pass || len(r.Reasons) != 0 {
		t.Fatalf("identical outcomes failed the gate: %+v", r)
	}
	// 0.4 pt recall drop, +2 FA on a 100-FA base (2% + 1 slack = +3).
	i8 := metrics.Outcome{GroundTruth: 1000, Detected: 946, FalseAlarms: 102, Elapsed: time.Second}
	r = QuantGateCheck(fp32, i8, b)
	if !r.Pass {
		t.Fatalf("in-budget drift failed the gate: %v", r.Reasons)
	}
	if r.Speedup < 1.99 || r.Speedup > 2.01 {
		t.Errorf("speedup %v, want ~2", r.Speedup)
	}
	// An int8 recall gain must never fail.
	better := metrics.Outcome{GroundTruth: 1000, Detected: 990, FalseAlarms: 100}
	if r := QuantGateCheck(fp32, better, b); !r.Pass {
		t.Fatalf("int8 recall gain failed the gate: %v", r.Reasons)
	}
}

// TestQuantGateCheckFailsOverBudget proves the gate actually fails:
// recall drops beyond 0.5 pt and false-alarm growth beyond the budget
// must each flip Pass to false with a reason naming the violation.
func TestQuantGateCheckFailsOverBudget(t *testing.T) {
	b := DefaultQuantGateBudget()
	fp32 := metrics.Outcome{GroundTruth: 1000, Detected: 950, FalseAlarms: 100}

	// 1.0 pt recall drop > 0.5 budget.
	lowRecall := metrics.Outcome{GroundTruth: 1000, Detected: 940, FalseAlarms: 100}
	r := QuantGateCheck(fp32, lowRecall, b)
	if r.Pass {
		t.Fatal("gate passed a 1.0 pt recall drop against a 0.5 pt budget")
	}
	if len(r.Reasons) != 1 || !strings.Contains(r.Reasons[0], "recall drop") {
		t.Fatalf("reasons = %v, want one recall-drop violation", r.Reasons)
	}

	// +4 false alarms > 2% of 100 + 1 slack = +3.
	manyFA := metrics.Outcome{GroundTruth: 1000, Detected: 950, FalseAlarms: 104}
	r = QuantGateCheck(fp32, manyFA, b)
	if r.Pass {
		t.Fatal("gate passed +4 false alarms against a +3 budget")
	}
	if len(r.Reasons) != 1 || !strings.Contains(r.Reasons[0], "false-alarm") {
		t.Fatalf("reasons = %v, want one false-alarm violation", r.Reasons)
	}

	// Both over budget: both reasons reported, and Render says FAIL.
	worst := metrics.Outcome{GroundTruth: 1000, Detected: 900, FalseAlarms: 150}
	r = QuantGateCheck(fp32, worst, b)
	if r.Pass || len(r.Reasons) != 2 {
		t.Fatalf("want both violations, got pass=%v reasons=%v", r.Pass, r.Reasons)
	}
	if out := r.Render(); !strings.Contains(out, "FAIL") {
		t.Errorf("Render of a failing gate lacks FAIL: %q", out)
	}
}

// TestQuantGateCheckZeroFABaseline: with a clean fp32 baseline the
// relative budget contributes nothing and only the absolute slack
// remains.
func TestQuantGateCheckZeroFABaseline(t *testing.T) {
	b := DefaultQuantGateBudget() // slack +1
	fp32 := metrics.Outcome{GroundTruth: 100, Detected: 90, FalseAlarms: 0}
	ok := metrics.Outcome{GroundTruth: 100, Detected: 90, FalseAlarms: 1}
	if r := QuantGateCheck(fp32, ok, b); !r.Pass {
		t.Fatalf("+1 FA on zero baseline failed with +1 slack: %v", r.Reasons)
	}
	bad := metrics.Outcome{GroundTruth: 100, Detected: 90, FalseAlarms: 2}
	if r := QuantGateCheck(fp32, bad, b); r.Pass {
		t.Fatal("+2 FA on zero baseline passed with +1 slack")
	}
}

// TestQuantGateCheckInconclusive: a gate run that cannot show a loss —
// an fp32 model that finds nothing, or too few hotspots to resolve the
// budget — is inconclusive and fails, even with zero deltas.
func TestQuantGateCheckInconclusive(t *testing.T) {
	b := DefaultQuantGateBudget()
	cases := []struct {
		name string
		fp32 metrics.Outcome
	}{
		{"zero recall", metrics.Outcome{GroundTruth: 174, Detected: 0, FalseAlarms: 3}},
		{"zero hotspots", metrics.Outcome{GroundTruth: 0, Detected: 0, FalseAlarms: 0}},
		{"recall under the floor", metrics.Outcome{GroundTruth: 174, Detected: 86}},
		{"hotspots under the floor", metrics.Outcome{GroundTruth: 99, Detected: 99}},
	}
	for _, tc := range cases {
		r := QuantGateCheck(tc.fp32, tc.fp32, b)
		if r.Pass || !r.Inconclusive {
			t.Errorf("%s: pass=%v inconclusive=%v, want an inconclusive failure", tc.name, r.Pass, r.Inconclusive)
		}
		if r.Verdict() != "INCONCLUSIVE" || !strings.Contains(r.Render(), "INCONCLUSIVE") {
			t.Errorf("%s: verdict %q, render %q", tc.name, r.Verdict(), r.Render())
		}
		if len(r.Reasons) != 1 || !strings.Contains(r.Reasons[0], "inconclusive") {
			t.Errorf("%s: reasons = %v, want one inconclusive reason", tc.name, r.Reasons)
		}
	}
	// At the floors exactly, the evidence suffices.
	edge := metrics.Outcome{GroundTruth: 100, Detected: 50}
	if r := QuantGateCheck(edge, edge, b); !r.Pass || r.Inconclusive || r.Verdict() != "PASS" {
		t.Fatalf("run at the floors: pass=%v inconclusive=%v reasons=%v", r.Pass, r.Inconclusive, r.Reasons)
	}
}

// TestCalibrationRastersPrefersOracleLabels checks labeled regions come
// first and the count cap holds.
func TestCalibrationRastersPrefersOracleLabels(t *testing.T) {
	p := SmokeProfile()
	data := LoadData(p)
	var labeled int
	for _, r := range data.MergedTrain {
		if len(r.HotspotPoints()) > 0 {
			labeled++
		}
	}
	if labeled == 0 {
		t.Skip("smoke data produced no labeled training regions")
	}
	n := labeled
	if n > 3 {
		n = 3
	}
	rs := CalibrationRasters(p.HSD, data.MergedTrain, n)
	if len(rs) != n {
		t.Fatalf("got %d rasters, want %d", len(rs), n)
	}
	for i, r := range rs {
		if r.Rank() != 4 || r.Dim(2) != p.HSD.InputSize {
			t.Fatalf("raster %d has shape %v", i, r.Shape())
		}
	}
}

// TestRunQuantGateSmoke runs the full gate end-to-end at smoke scale:
// train once, calibrate, evaluate both precisions, score. A smoke-scale
// model is barely trained, so the test asserts the machinery — deltas
// computed, calibration counted, precision restored — not the verdict.
func TestRunQuantGateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quant gate smoke test skipped in -short mode")
	}
	p := SmokeProfile()
	data := LoadData(p)
	res, err := RunQuantGate(p, data, DefaultQuantGateBudget(), nil)
	if err != nil {
		t.Fatalf("RunQuantGate: %v", err)
	}
	if res.CalibrationRasters == 0 {
		t.Error("gate ran with zero calibration rasters")
	}
	if res.FP32.GroundTruth == 0 || res.Int8.GroundTruth == 0 {
		t.Error("gate evaluated zero ground-truth hotspots")
	}
	if res.FP32.GroundTruth != res.Int8.GroundTruth {
		t.Errorf("fp32 and int8 saw different ground truth: %d vs %d",
			res.FP32.GroundTruth, res.Int8.GroundTruth)
	}
	if out := res.Render(); !strings.Contains(out, "int8 accuracy gate") {
		t.Errorf("Render output malformed: %q", out)
	}
}
