package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// completeTrace builds a small but realistic trace: root → scan → two
// megatile spans with attrs and a stage child each.
func completeTrace(r *FlightRecorder, reqID string) *Trace {
	tr := r.StartTrace("detect", reqID, "")
	scan := tr.StartSpan(tr.Root(), "scan")
	for i := 0; i < 2; i++ {
		mt := tr.StartSpan(scan, "megatile")
		mt.SetAttr("worker", int64(i))
		mt.SetAttrStr("cache", "miss")
		st := tr.StartSpan(mt, "backbone")
		tr.EndSpan(st)
		tr.EndSpan(mt)
	}
	tr.EndSpan(scan)
	tr.Complete()
	return tr
}

func TestFlightRecorderRingOrder(t *testing.T) {
	const cap = 4
	r := NewFlightRecorder(cap)
	var ids []string
	for i := 0; i < cap+3; i++ {
		tr := completeTrace(r, fmt.Sprintf("req-%d", i))
		ids = append(ids, tr.TraceID())
	}
	got := r.Traces()
	if len(got) != cap {
		t.Fatalf("retained %d traces, want %d", len(got), cap)
	}
	// Newest first, and exactly the last cap completions retained.
	for i, s := range got {
		wantReq := fmt.Sprintf("req-%d", cap+3-1-i)
		if s.RequestID != wantReq {
			t.Errorf("slot %d: request %q, want %q", i, s.RequestID, wantReq)
		}
		if i > 0 && got[i-1].Seq <= s.Seq {
			t.Errorf("slot %d: seq %d not decreasing (prev %d)", i, s.Seq, got[i-1].Seq)
		}
	}
	// Evicted traces are gone; retained ones resolve by both keys.
	if _, ok := r.Trace(ids[0]); ok {
		t.Error("oldest trace still retrievable after eviction")
	}
	if _, ok := r.Trace(ids[len(ids)-1]); !ok {
		t.Error("newest trace not retrievable by trace id")
	}
	if _, ok := r.Trace("req-6"); !ok {
		t.Error("newest trace not retrievable by request id")
	}
}

func TestTraceTreeShapeAndSnapshot(t *testing.T) {
	r := NewFlightRecorder(2)
	tr := completeTrace(r, "req-1")
	data, ok := r.Trace(tr.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if !data.Complete || data.Spans != 6 {
		t.Fatalf("complete=%v spans=%d, want complete with 6 spans", data.Complete, data.Spans)
	}
	if data.Root.Name != "detect" || len(data.Root.Children) != 1 {
		t.Fatalf("root %q with %d children, want detect with 1", data.Root.Name, len(data.Root.Children))
	}
	scan := data.Root.Children[0]
	if scan.Name != "scan" || len(scan.Children) != 2 {
		t.Fatalf("scan span %q with %d children, want 2 megatiles", scan.Name, len(scan.Children))
	}
	for _, mt := range scan.Children {
		if len(mt.Attrs) != 2 || mt.Attrs[0].Key != "worker" || mt.Attrs[1].Str != "miss" {
			t.Fatalf("megatile attrs %+v, want worker + cache=miss", mt.Attrs)
		}
		if len(mt.Children) != 1 || mt.Children[0].Name != "backbone" {
			t.Fatalf("megatile children %+v, want one backbone stage", mt.Children)
		}
		// Children must nest inside their parent's interval.
		st := mt.Children[0]
		if st.StartNs < mt.StartNs || st.StartNs+st.DurationNs > mt.StartNs+mt.DurationNs {
			t.Errorf("stage [%d,+%d] outside megatile [%d,+%d]",
				st.StartNs, st.DurationNs, mt.StartNs, mt.DurationNs)
		}
	}
}

// TestSnapshotSurvivesEviction pins the aliasing contract of Snapshot:
// a TraceData shares no memory with the recorder's spans, so it stays
// intact after its trace is evicted by newer traces that set every
// field.
func TestSnapshotSurvivesEviction(t *testing.T) {
	r := NewFlightRecorder(1)
	tr := completeTrace(r, "victim")
	data, ok := r.Trace(tr.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	blob, _ := json.Marshal(data)
	// Evict the trace with a run of newer ones.
	for i := 0; i < 10; i++ {
		next := r.StartTrace("other", "other", "")
		sp := next.StartSpan(next.Root(), "overwrite")
		sp.SetAttr("x", 999)
		sp.SetAttrStr("cache", "hit")
		next.EndSpan(sp)
		next.Complete()
	}
	blob2, _ := json.Marshal(data)
	if string(blob) != string(blob2) {
		t.Fatalf("snapshot mutated by eviction:\nbefore %s\nafter  %s", blob, blob2)
	}
}

func TestSpanBudgets(t *testing.T) {
	// maxChildren: the third child of root is dropped, and so is its
	// entire would-be subtree.
	r := NewFlightRecorderLimits(1, 100, 2)
	tr := r.StartTrace("detect", "req", "")
	for i := 0; i < 5; i++ {
		c := tr.StartSpan(tr.Root(), "child")
		// Children of a dropped span are dropped with it.
		tr.EndSpan(tr.StartSpan(c, "grandchild"))
		tr.EndSpan(c)
	}
	tr.Complete()
	data, _ := r.Trace(tr.TraceID())
	if len(data.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2 (budget)", len(data.Root.Children))
	}
	if data.Root.DroppedChildren != 3 {
		t.Fatalf("root dropped_children %d, want 3", data.Root.DroppedChildren)
	}
	// 3 dropped children + their 3 dropped grandchildren.
	if data.DroppedSpans != 6 {
		t.Fatalf("dropped_spans %d, want 6", data.DroppedSpans)
	}

	// maxSpans: the total span budget truncates the tree.
	r = NewFlightRecorderLimits(1, 3, 100)
	tr = r.StartTrace("detect", "req", "")
	for i := 0; i < 5; i++ {
		tr.EndSpan(tr.StartSpan(tr.Root(), "child"))
	}
	tr.Complete()
	data, _ = r.Trace(tr.TraceID())
	if data.Spans != 3 || data.DroppedSpans != 3 {
		t.Fatalf("spans=%d dropped=%d, want 3 retained (incl. root) and 3 dropped",
			data.Spans, data.DroppedSpans)
	}
}

func TestSpanOpsAfterCompleteAreNoOps(t *testing.T) {
	r := NewFlightRecorder(2)
	tr := r.StartTrace("detect", "req", "")
	sp := tr.StartSpan(tr.Root(), "scan")
	tr.Complete()
	// All of these must be silent no-ops on a completed trace.
	sp.SetAttr("k", 1)
	sp.SetAttrStr("k", "v")
	tr.EndSpan(sp)
	if s := tr.StartSpan(tr.Root(), "late"); s != nil {
		t.Fatal("StartSpan on a completed trace returned a live span")
	}
	tr.Complete() // idempotent
	data, _ := r.Trace(tr.TraceID())
	if len(data.Root.Children) != 1 || len(data.Root.Children[0].Attrs) != 0 {
		t.Fatalf("post-complete ops mutated the trace: %+v", data.Root)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if tr.TraceID() != "" || tr.RequestID() != "" || tr.TraceParent() != "" {
		t.Fatal("nil trace identity not empty")
	}
	sp := tr.StartSpan(tr.Root(), "x")
	if sp != nil {
		t.Fatal("nil trace returned a span")
	}
	sp.SetAttr("k", 1)
	sp.SetAttrStr("k", "v")
	tr.EndSpan(sp)
	tr.Complete()
	if d := tr.Snapshot(); d.Spans != 0 {
		t.Fatal("nil trace snapshot not zero")
	}
	var r *FlightRecorder
	if r.StartTrace("x", "y", "") != nil || r.Cap() != 0 || r.Traces() != nil {
		t.Fatal("nil recorder not inert")
	}
	if _, ok := r.Trace("id"); ok {
		t.Fatal("nil recorder resolved a trace")
	}
}

// TestTraceHammer drives the recorder the way a busy pool does —
// concurrent requests, each fanning megatile spans across workers,
// completing into a small ring while readers list and fetch — and
// checks no trace comes out torn. Run under -race this is the pinning
// test for the locking design.
func TestTraceHammer(t *testing.T) {
	const (
		requests = 64
		perTrace = 16
		ringCap  = 4
	)
	r := NewFlightRecorder(ringCap)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: continuously list and deep-fetch whatever is retained.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range r.Traces() {
					if data, ok := r.Trace(s.TraceID); ok {
						if !data.Complete {
							t.Error("retained trace not complete")
							return
						}
						// A torn trace would show open spans or a
						// child outside its parent's interval.
						checkSpanNesting(t, data.Root)
					}
				}
			}
		}()
	}
	// Writers: requests × concurrent megatile spans.
	sem := make(chan struct{}, 8)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			tr := r.StartTrace("detect", fmt.Sprintf("req-%d", i), "")
			scan := tr.StartSpan(tr.Root(), "scan")
			var mg sync.WaitGroup
			for w := 0; w < perTrace; w++ {
				mg.Add(1)
				go func(w int) {
					defer mg.Done()
					mt := tr.StartSpan(scan, "megatile")
					mt.SetAttr("worker", int64(w))
					mt.SetAttrStr("cache", "miss")
					st := tr.StartSpan(mt, "backbone")
					tr.EndSpan(st)
					tr.EndSpan(mt)
				}(w)
			}
			mg.Wait()
			tr.EndSpan(scan)
			tr.Complete()
		}(i)
	}
	for i := 0; i < cap(sem); i++ {
		sem <- struct{}{}
	}
	close(stop)
	wg.Wait()
	if got := len(r.Traces()); got != ringCap {
		t.Fatalf("retained %d traces, want %d", got, ringCap)
	}
	for _, s := range r.Traces() {
		if s.Spans != 2+2*perTrace {
			t.Errorf("trace %s: %d spans, want %d", s.TraceID, s.Spans, 2+2*perTrace)
		}
	}
}

func checkSpanNesting(t *testing.T, s SpanData) {
	for _, c := range s.Children {
		if c.StartNs < s.StartNs || c.StartNs+c.DurationNs > s.StartNs+s.DurationNs {
			t.Errorf("span %q [%d,+%d] outside parent %q [%d,+%d]",
				c.Name, c.StartNs, c.DurationNs, s.Name, s.StartNs, s.DurationNs)
		}
		checkSpanNesting(t, c)
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	r := NewFlightRecorder(1)
	tr := r.StartTrace("detect", "req", "")
	hdr := tr.TraceParent()
	tid, sid, ok := ParseTraceParent(hdr)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", hdr)
	}
	if FormatTraceParent(tid, sid) != hdr {
		t.Fatalf("round trip changed the header: %q", hdr)
	}

	// An inbound header donates trace id and parent span id.
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tr2 := r.StartTrace("detect", "req2", inbound)
	if tr2.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("inbound trace id not adopted: %s", tr2.TraceID())
	}
	tr2.Complete()
	data, _ := r.Trace("req2")
	if data.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("parent span id %q, want the inbound one", data.ParentSpanID)
	}
	if data.SpanID == "00f067aa0ba902b7" {
		t.Fatal("own span id must differ from the inbound parent")
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // no flags
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // version 01
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e473X-00f067aa0ba902b7-01",   // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",   // non-hex flags
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // too long
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceParent(h); ok {
			t.Errorf("ParseTraceParent(%q) accepted a malformed header", h)
		}
	}
}

func TestRenderText(t *testing.T) {
	r := NewFlightRecorder(1)
	tr := completeTrace(r, "req-9")
	data, _ := r.Trace(tr.TraceID())
	var sb strings.Builder
	data.RenderText(&sb)
	out := sb.String()
	for _, want := range []string{
		"trace " + tr.TraceID(), "request req-9", "complete", "spans 6",
		"detect", "scan", "megatile", "backbone", "worker=0", "cache=miss",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+6 {
		t.Errorf("rendering has %d lines, want header + 6 spans:\n%s", len(lines), out)
	}
}

func TestTraceAttrJSONRoundTrip(t *testing.T) {
	in := []TraceAttr{{Key: "worker", Val: 3}, {Key: "cache", Str: "hit"}}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `[{"worker":3},{"cache":"hit"}]` {
		t.Fatalf("marshal: %s", blob)
	}
	var out []TraceAttr
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestContextTrace(t *testing.T) {
	ctx := context.Background()
	if ContextWithTrace(ctx, nil) != ctx {
		t.Fatal("nil trace must not wrap the context")
	}
	if TraceFromContext(ctx) != nil {
		t.Fatal("empty context returned a trace")
	}
	tr := NewFlightRecorder(1).StartTrace("x", "y", "")
	if TraceFromContext(ContextWithTrace(ctx, tr)) != tr {
		t.Fatal("trace did not round-trip through the context")
	}
}

// TestTraceDurations sanity-checks the monotonic clock: a span that
// sleeps reports at least that long, and the trace duration covers it.
func TestTraceDurations(t *testing.T) {
	r := NewFlightRecorder(1)
	tr := r.StartTrace("detect", "req", "")
	sp := tr.StartSpan(tr.Root(), "sleep")
	time.Sleep(5 * time.Millisecond)
	tr.EndSpan(sp)
	tr.Complete()
	data, _ := r.Trace(tr.TraceID())
	if got := data.Root.Children[0].DurationNs; got < int64(4*time.Millisecond) {
		t.Fatalf("slept span lasted %dns, want >= 4ms", got)
	}
	if data.DurationNs < data.Root.Children[0].DurationNs {
		t.Fatalf("trace %dns shorter than its child %dns",
			data.DurationNs, data.Root.Children[0].DurationNs)
	}
}
