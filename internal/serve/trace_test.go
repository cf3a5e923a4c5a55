package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"rhsd/internal/telemetry"
)

// TestDetectProducesRetrievableTrace is the serve-level contract of the
// flight recorder: a /detect response names its trace, and the trace is
// retrievable with the queue-wait, parse, scan and megatile structure
// plus the /statusz scan-history join.
func TestDetectProducesRetrievableTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1}, nil)
	body := layoutBody(t, testLayout(testConfig()))

	resp, data := postLayout(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: status %d: %s", resp.StatusCode, data)
	}
	out := decodeDetect(t, data)
	if len(out.TraceID) != 32 {
		t.Fatalf("trace_id %q, want 32 hex digits", out.TraceID)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != out.TraceID {
		t.Fatalf("X-Trace-Id %q != body trace_id %q", got, out.TraceID)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, out.TraceID) {
		t.Fatalf("traceparent header %q lacks the trace id", tp)
	}

	// Listing and fetch, by trace id and by request id.
	r, err := http.Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.Contains(string(blob), out.TraceID) {
		t.Fatalf("traces list (status %d) lacks %s: %s", r.StatusCode, out.TraceID, blob)
	}
	r, err = http.Get(ts.URL + "/traces/" + out.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d: %s", r.StatusCode, blob)
	}
	var td telemetry.TraceData
	if err := json.Unmarshal(blob, &td); err != nil {
		t.Fatalf("trace fetch: decoding %q: %v", blob, err)
	}
	if !td.Complete || td.Root.Name != "detect" {
		t.Fatalf("trace complete=%v root=%q, want a complete detect trace", td.Complete, td.Root.Name)
	}
	names := map[string]int{}
	for _, c := range td.Root.Children {
		names[c.Name]++
	}
	for _, want := range []string{"queue_wait", "parse", "scan"} {
		if names[want] != 1 {
			t.Fatalf("root children %v, want one %q", names, want)
		}
	}
	megatiles := 0
	for _, c := range td.Root.Children {
		if c.Name != "scan" {
			continue
		}
		for _, mt := range c.Children {
			if mt.Name == "megatile" {
				megatiles++
			}
		}
	}
	if megatiles < 1 {
		t.Fatalf("scan span has no megatile children: %+v", td.Root)
	}

	// Scan history joins the scan id to the trace id.
	r, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ = io.ReadAll(r.Body)
	r.Body.Close()
	var st Status
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if st.Build.GoVersion == "" || st.Build.GemmKernel == "" {
		t.Fatalf("statusz build info incomplete: %+v", st.Build)
	}
	if st.TraceCapacity != 32 || st.TracesRetained < 1 {
		t.Fatalf("statusz recorder retained=%d capacity=%d", st.TracesRetained, st.TraceCapacity)
	}
	joined := false
	for _, e := range st.ScanHistory {
		if e.ScanID == out.ScanID && e.TraceID == out.TraceID {
			joined = true
		}
	}
	if !joined {
		t.Fatalf("scan history %+v lacks scan %d ↔ trace %s", st.ScanHistory, out.ScanID, out.TraceID)
	}

	// Text rendering by request id.
	r, err = http.Get(ts.URL + "/traces/" + td.RequestID + "?format=txt")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.Contains(string(blob), "megatile") {
		t.Fatalf("trace txt (status %d): %s", r.StatusCode, blob)
	}
}

func TestTracingDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, FlightRecorder: -1}, nil)
	resp, data := postLayout(t, ts.URL, layoutBody(t, testLayout(testConfig())))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: status %d: %s", resp.StatusCode, data)
	}
	if out := decodeDetect(t, data); out.TraceID != "" {
		t.Fatalf("trace_id %q with tracing disabled", out.TraceID)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("X-Trace-Id %q with tracing disabled", got)
	}
	for _, path := range []string{"/traces", "/traces/deadbeef"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404 with tracing disabled", path, r.StatusCode)
		}
	}
}

// TestTraceCompletesAfterTimeout pins the 504 contract: a scan past its
// deadline stops at the next megatile boundary, its worker is back in
// the pool, and the 504 names a trace that is already complete in the
// recorder, with the scan span marked cancelled.
func TestTraceCompletesAfterTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, Timeout: 50 * time.Millisecond},
		func(ctx context.Context) { <-ctx.Done() })
	resp, data := postLayout(t, ts.URL, layoutBody(t, testLayout(testConfig())))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled detect: status %d: %s", resp.StatusCode, data)
	}
	if n := len(s.pool); n != 1 {
		t.Fatalf("%d workers in the pool when the 504 arrived, want 1", n)
	}
	reqID := resp.Header.Get("X-Request-Id")
	traceID := resp.Header.Get("X-Trace-Id")
	if len(traceID) != 32 {
		t.Fatalf("504 response X-Trace-Id %q, want a trace id", traceID)
	}
	r, err := http.Get(ts.URL + "/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace %s not retained when its 504 arrived: status %d", traceID, r.StatusCode)
	}
	var td telemetry.TraceData
	if err := json.Unmarshal(blob, &td); err != nil {
		t.Fatal(err)
	}
	if !td.Complete || td.RequestID != reqID {
		t.Fatalf("timed-out trace complete=%v request=%q, want complete %q",
			td.Complete, td.RequestID, reqID)
	}
	outcome := ""
	for _, c := range td.Root.Children {
		if c.Name != "scan" {
			continue
		}
		for _, a := range c.Attrs {
			if a.Key == "outcome" {
				outcome = a.Str
			}
		}
	}
	if outcome != "cancelled" {
		t.Fatalf("timed-out trace's scan outcome %q, want cancelled: %+v", outcome, td.Root)
	}
	if n := s.met.timeouts.Value(); n != 1 {
		t.Fatalf("timeouts counter %d, want 1", n)
	}
}

func TestSlowScanLogging(t *testing.T) {
	var logs lockedBuffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))
	_, ts := newTestServer(t, Config{Pool: 1, SlowScan: time.Nanosecond, Logger: logger}, nil)
	resp, data := postLayout(t, ts.URL, layoutBody(t, testLayout(testConfig())))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: status %d: %s", resp.StatusCode, data)
	}
	out := decodeDetect(t, data)
	// The slow-scan dump is written by the scan goroutine right before
	// the response is released, but flushes through slog asynchronously
	// to this goroutine's view only in the sense of buffer writes; poll
	// briefly to be safe.
	deadline := time.Now().Add(5 * time.Second)
	for {
		text := logs.String()
		if strings.Contains(text, "slow scan") && strings.Contains(text, out.TraceID) {
			if !strings.Contains(text, "worst_span=megatile") {
				t.Fatalf("slow-scan log lacks the worst megatile: %s", text)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow-scan log for trace %s: %s", out.TraceID, text)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTraceParentAdopted checks the W3C propagation path end to end
// through the HTTP layer.
func TestTraceParentAdopted(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1}, nil)
	const inbound = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/detect",
		bytes.NewReader(layoutBody(t, testLayout(testConfig()))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: status %d", resp.StatusCode)
	}
	const wantID = "0af7651916cd43dd8448eb211c80319c"
	if got := resp.Header.Get("X-Trace-Id"); got != wantID {
		t.Fatalf("X-Trace-Id %q, want the inbound trace id", got)
	}
	out := resp.Header.Get("Traceparent")
	if !strings.HasPrefix(out, "00-"+wantID+"-") || strings.Contains(out, "b7ad6b7169203331") {
		t.Fatalf("outbound traceparent %q: want inbound trace id with a fresh span id", out)
	}
	r, err := http.Get(ts.URL + "/traces/" + wantID)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("adopted trace not retained: status %d", r.StatusCode)
	}
	var td telemetry.TraceData
	if err := json.Unmarshal(blob, &td); err != nil {
		t.Fatal(err)
	}
	if td.ParentSpanID != "b7ad6b7169203331" {
		t.Fatalf("parent span id %q, want the inbound span", td.ParentSpanID)
	}
}
