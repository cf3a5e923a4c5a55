package hsd

import (
	"context"
	"testing"

	"rhsd/internal/layout"
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
)

// tracedScanLayout builds the standard two-megatile test chip.
func tracedScanLayout(c Config) *layout.Layout {
	W, _ := twoMegatileWindow(c)
	l := layout.New(layout.R(0, 0, W, W))
	addStripes(l, c)
	plantBlob(l, 400, 400, c)
	plantBlob(l, 2250, 2250, c)
	return l
}

// tracedScan runs req through Scan with tr on the request context.
func tracedScan(t *testing.T, m *Model, tr *telemetry.Trace, req ScanRequest) *ScanResult {
	t.Helper()
	res, err := m.Scan(telemetry.ContextWithTrace(context.Background(), tr), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// attrMap flattens a span's attributes for assertions. Duplicate keys
// keep the last value.
func attrMap(sp telemetry.SpanData) map[string]telemetry.TraceAttr {
	out := make(map[string]telemetry.TraceAttr, len(sp.Attrs))
	for _, a := range sp.Attrs {
		out[a.Key] = a
	}
	return out
}

// TestScanTraceTree pins the shape of a traced megatile scan: root →
// scan span (factor + megatile count) → one megatile span per tile
// carrying worker, grid position, cache outcome and per-stage tensor
// time, each with pipeline stage children nested inside its interval.
func TestScanTraceTree(t *testing.T) {
	c := TinyConfig()
	c.UseRefine = false
	c.ScoreThreshold = 0.45
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	l := tracedScanLayout(c)

	prev := tensor.SetProfiling(true)
	defer tensor.SetProfiling(prev)
	rec := telemetry.NewFlightRecorder(2)
	tr := rec.StartTrace("detect", "test", "")
	res := tracedScan(t, m, tr, ScanRequest{Layout: l, Window: l.Bounds, Factor: 2})
	tr.Complete()

	data, ok := rec.Trace(tr.TraceID())
	if !ok {
		t.Fatal("scan trace not retained")
	}
	if !data.Complete || data.DroppedSpans != 0 {
		t.Fatalf("complete=%v dropped=%d, want a complete un-truncated trace",
			data.Complete, data.DroppedSpans)
	}
	if len(data.Root.Children) != 1 || data.Root.Children[0].Name != "scan" {
		t.Fatalf("root children %+v, want exactly one scan span", data.Root.Children)
	}
	scan := data.Root.Children[0]
	attrs := attrMap(scan)
	if attrs["factor"].Val != 2 || attrs["megatiles"].Val != 4 {
		t.Fatalf("scan attrs %+v, want factor=2 megatiles=4", scan.Attrs)
	}
	// The scan span parents the megatile work items plus the post-scan
	// merge stages (h-NMS runs inside the scan boundary).
	var megatiles []telemetry.SpanData
	for _, c := range scan.Children {
		if c.Name == "megatile" {
			megatiles = append(megatiles, c)
		}
	}
	if len(megatiles) != 4 {
		t.Fatalf("scan has %d megatile spans (children %+v), want 4", len(megatiles), scan.Children)
	}
	seen := map[[2]int64]bool{}
	for _, mt := range megatiles {
		a := attrMap(mt)
		for _, key := range []string{"worker", "ix", "iy", "x_nm", "y_nm"} {
			if _, ok := a[key]; !ok {
				t.Fatalf("megatile span lacks %q: %+v", key, mt.Attrs)
			}
		}
		seen[[2]int64{a["ix"].Val, a["iy"].Val}] = true
		// No cache attached: every lookup outcome is "none".
		if a["cache"].Str != "none" {
			t.Fatalf("megatile cache attr %q, want none without a cache", a["cache"].Str)
		}
		// The forward pass must have attributed tensor stage time to
		// this span (some gemm flavor always runs).
		if a["gemm_packed_ns"].Val+a["gemm_rows_ns"].Val <= 0 {
			t.Fatalf("megatile span lacks gemm time: %+v", mt.Attrs)
		}
		if len(mt.Children) == 0 {
			t.Fatal("megatile span has no stage children")
		}
		for _, st := range mt.Children {
			if st.StartNs < mt.StartNs || st.StartNs+st.DurationNs > mt.StartNs+mt.DurationNs {
				t.Fatalf("stage %q [%d,+%d] outside megatile [%d,+%d]",
					st.Name, st.StartNs, st.DurationNs, mt.StartNs, mt.DurationNs)
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("megatile grid positions %v, want 4 distinct", seen)
	}

	// An all-reused incremental rescan opens a rescan span instead, with
	// the reuse accounting and no megatile children (nothing dirty).
	tr2 := rec.StartTrace("detect", "test-rescan", "")
	res2 := tracedScan(t, m, tr2, ScanRequest{Layout: l, Window: l.Bounds, Factor: 2, Prev: res})
	tr2.Complete()
	if res2.TilesReused != 4 {
		t.Fatalf("rescan reused %d tiles, want 4", res2.TilesReused)
	}
	data2, _ := rec.Trace("test-rescan")
	if len(data2.Root.Children) != 1 || data2.Root.Children[0].Name != "rescan" {
		t.Fatalf("rescan root children %+v, want one rescan span", data2.Root.Children)
	}
	ra := attrMap(data2.Root.Children[0])
	if ra["megatiles_reused"].Val != 4 || ra["megatiles_dirty"].Val != 0 {
		t.Fatalf("rescan attrs %+v, want 4 reused / 0 dirty", data2.Root.Children[0].Attrs)
	}
}

// TestProfileScopeParity pins the attribution contract of
// tensor.ProfileScope: every instrumented site adds the identical
// elapsed value to the global profile and to the active span's scope,
// so the per-span *_ns attributes summed over all megatile spans equal
// the global snapshot delta exactly — no tensor time in a traced scan
// escapes span attribution.
func TestProfileScopeParity(t *testing.T) {
	c := TinyConfig()
	c.UseRefine = false
	c.ScoreThreshold = 0.45
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	l := tracedScanLayout(c)

	prev := tensor.SetProfiling(true)
	defer tensor.SetProfiling(prev)
	rec := telemetry.NewFlightRecorder(1)

	// Warm up first (workspace sizing allocates; irrelevant here), then
	// measure one traced scan against a clean global profile. Serial
	// workers keep the global counters exclusively ours.
	detectAtWorkers(1, func() int {
		m.ScanLayoutMegatile(l, l.Bounds, 2)
		tensor.ResetProfile()
		tr := rec.StartTrace("detect", "parity", "")
		tracedScan(t, m, tr, ScanRequest{Layout: l, Window: l.Bounds, Factor: 2})
		tr.Complete()
		return 0
	})

	global := tensor.ProfileSnapshot()
	data, _ := rec.Trace("parity")
	spanSums := map[string]int64{}
	for _, mt := range data.Root.Children[0].Children {
		for _, a := range mt.Attrs {
			spanSums[a.Key] += a.Val
		}
	}
	checked := 0
	for _, e := range global {
		key := e.Stage + "_ns"
		if spanSums[key] != e.Ns {
			t.Errorf("stage %s: span sum %d ns != global %d ns", e.Stage, spanSums[key], e.Ns)
		}
		if e.Ns > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no tensor stage recorded any time — the parity check is vacuous")
	}
}
