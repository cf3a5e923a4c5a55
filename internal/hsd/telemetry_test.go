package hsd

import (
	"math/rand"
	"strings"
	"testing"

	"rhsd/internal/parallel"
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
)

// TestDetectRecordsStageTelemetry checks that one Detect pass lands one
// observation in every active stage histogram and that the scan counters
// stay coherent (kept + suppressed = candidates entering h-NMS, one pass
// counted, detections counted exactly).
func TestDetectRecordsStageTelemetry(t *testing.T) {
	c := TinyConfig()
	c.ScoreThreshold = 0.2 // untrained weights must still report something
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ins := NewInstruments(reg)
	m.SetInstruments(ins)

	rng := rand.New(rand.NewSource(31))
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	x.RandUniform(rng, 0, 1)
	dets := m.Detect(x)

	if got := ins.DetectPasses.Value(); got != 1 {
		t.Errorf("detect passes = %d, want 1", got)
	}
	if got := ins.Detections.Value(); got != int64(len(dets)) {
		t.Errorf("detections counter = %d, want %d", got, len(dets))
	}
	for st := Stage(0); st < numStages; st++ {
		h := ins.StageHistogram(st)
		want := int64(1)
		switch st {
		case StageHNMS:
			// h-NMS runs inside proposal filtering and again on the
			// refined clips.
			want = 2
		case StageEncDec:
			if !c.UseEncDec {
				want = 0
			}
		case StageRefine:
			if !c.UseRefine {
				want = 0
			}
		}
		if got := h.Count(); got != want {
			t.Errorf("stage %s: %d observations, want %d", stageNames[st], got, want)
		}
		if h.Sum() < 0 {
			t.Errorf("stage %s: negative elapsed sum %v", stageNames[st], h.Sum())
		}
	}
	kept, supp := ins.ProposalsKept.Value(), ins.ProposalsSuppressed.Value()
	if kept <= 0 {
		t.Errorf("proposals kept = %d, want > 0", kept)
	}
	if supp < 0 {
		t.Errorf("proposals suppressed = %d", supp)
	}
}

// TestLayoutScanTelemetry checks the scan-level series: megatile
// work-item counters and the workspace gauge, and that replicas created
// by the parallel scan aggregate into the parent's instruments rather
// than dropping observations.
func TestLayoutScanTelemetry(t *testing.T) {
	c := TinyConfig()
	c.ScoreThreshold = 0.2
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ins := NewInstruments(reg)
	m.SetInstruments(ins)

	l := scanLayout(c)
	m.DetectLayoutMegatile(l, l.Bounds, 2)
	if got := ins.MegatilesScanned.Value(); got < 1 {
		t.Errorf("megatiles scanned = %d, want >= 1", got)
	}
	mt := ins.MegatilesScanned.Value()
	if passes := ins.DetectPasses.Value(); passes != mt {
		t.Errorf("detect passes = %d, want %d (one per megatile)", passes, mt)
	}
	if ws := ins.WorkspaceBytes.Value(); ws <= 0 {
		t.Errorf("workspace gauge = %d after a scan", ws)
	}

	m.DetectLayoutMegatile(l, l.Bounds, 1)
	if got := ins.MegatilesScanned.Value() - mt; got < 4 {
		t.Errorf("factor-1 scan counted %d megatiles, want >= 4 for a 2×2-region layout", got)
	}

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"rhsd_detect_stage_seconds_bucket", "rhsd_scan_tiles_total",
		"rhsd_detect_proposals_total", "rhsd_workspace_bytes",
	} {
		if !strings.Contains(b.String(), fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
}

// TestDetectTelemetryAllocs extends the steady-state allocation guard to
// the instrumented path: with a telemetry bundle attached, Detect must
// stay within the same allocation budget as with telemetry disabled —
// the whole point of the preallocated atomic instruments.
func TestDetectTelemetryAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	c := TinyConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInstruments(NewInstruments(telemetry.NewRegistry()))
	rng := rand.New(rand.NewSource(23))
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	x.RandUniform(rng, 0, 1)

	m.Detect(x) // warm-up: sizes the workspace arena and scratch

	allocs := testing.AllocsPerRun(10, func() {
		m.Detect(x)
	})
	// Same budget as the uninstrumented guard in alloc_guard_test.go:
	// telemetry must be free in allocation terms.
	const budget = 8
	if allocs > budget {
		t.Errorf("instrumented Detect allocated %.0f times per run, want ≤ %d", allocs, budget)
	}
}

// BenchmarkDetectRegionTelemetry is BenchmarkDetectRegion with a live
// telemetry bundle — diffing the two shows the instrumentation overhead.
func BenchmarkDetectRegionTelemetry(b *testing.B) {
	m, x := benchDetectSetup(b)
	prev := m.Instruments()
	m.SetInstruments(NewInstruments(telemetry.NewRegistry()))
	defer m.SetInstruments(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Detect(x)
	}
}
