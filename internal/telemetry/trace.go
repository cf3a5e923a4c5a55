package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Request-scoped tracing: a span tree per scan request plus a fixed-size
// ring of the last N completed traces (the "flight recorder").
//
// The design contract mirrors the rest of this package: when tracing is
// not armed every instrumented site sees a nil *Trace/*TraceSpan and
// pays a nil check, nothing else — no clock read, no allocation. When
// armed, each span is its own allocation, timestamps are monotonic
// offsets from the trace start, and both the span count per trace and
// the child count per span are bounded with explicit drop counters so a
// pathological request cannot grow without limit.
//
// Concurrency: a trace is mutated under its own mutex (megatile spans
// start and end concurrently from scan workers), the recorder ring
// under the recorder's mutex. Lock order is trace → recorder; nothing
// takes them in the other order. Completed traces are immutable — every
// mutating entry point checks t.done — so ring reads only need the
// recorder lock, and a span operation that arrives after Complete is a
// no-op on the done trace. An evicted trace is simply dropped from the
// ring; its spans are never reused.

// Default bounds for traces held by a FlightRecorder.
const (
	// DefaultMaxSpans bounds the total spans in one trace. A full-chip
	// megatile scan at factor 8 is 64 megatile spans × ~10 stage spans;
	// per-tile scans of large chips are the only workload that hits the
	// cap, and they record the overflow in DroppedSpans.
	DefaultMaxSpans = 8192
	// DefaultMaxChildren bounds the children of a single span.
	DefaultMaxChildren = 512
)

// spanOpen marks a span whose End has not run yet.
const spanOpen int64 = -1

// TraceAttr is one key/value annotation on a span. Val carries numeric
// attributes; Str, when non-empty, takes precedence (string attribute).
type TraceAttr struct {
	Key string
	Val int64
	Str string
}

// MarshalJSON renders the attribute as a single-key object — {"worker":3}
// or {"cache":"hit"} — with the value typed as number or string.
func (a TraceAttr) MarshalJSON() ([]byte, error) {
	if a.Str != "" {
		return []byte(fmt.Sprintf("{%q:%q}", a.Key, a.Str)), nil
	}
	return []byte(fmt.Sprintf("{%q:%d}", a.Key, a.Val)), nil
}

// UnmarshalJSON parses the single-key object form MarshalJSON emits, so
// clients (and the serve selftest) can round-trip TraceData.
func (a *TraceAttr) UnmarshalJSON(b []byte) error {
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for k, v := range m {
		a.Key = k
		switch val := v.(type) {
		case string:
			a.Str = val
		case float64:
			a.Val = int64(val)
		}
	}
	return nil
}

// TraceSpan is one node of a trace's span tree.
type TraceSpan struct {
	t        *Trace
	name     string
	startNs  int64
	endNs    int64
	parent   *TraceSpan
	children []*TraceSpan
	dropped  int64
	attrs    []TraceAttr
}

// SetAttr attaches a numeric attribute. Nil-safe; no-op after the
// owning trace completes.
func (s *TraceSpan) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	t := s.t
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		s.attrs = append(s.attrs, TraceAttr{Key: key, Val: v})
	}
	t.mu.Unlock()
}

// SetAttrStr attaches a string attribute. Nil-safe. val should be a
// constant or an already-materialized string: the span retains it.
func (s *TraceSpan) SetAttrStr(key, val string) {
	if s == nil {
		return
	}
	t := s.t
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		s.attrs = append(s.attrs, TraceAttr{Key: key, Str: val})
	}
	t.mu.Unlock()
}

// Trace is the span tree for one request. All methods are nil-safe so
// untraced requests thread a nil *Trace through the same code path.
type Trace struct {
	rec       *FlightRecorder
	traceID   [16]byte
	spanID    [8]byte
	parentID  [8]byte
	hasParent bool
	reqID     string
	start     time.Time
	seq       uint64

	mu      sync.Mutex
	root    *TraceSpan
	nspans  int
	dropped int64
	done    bool
}

// clockNs returns the monotonic offset from the trace start.
func (t *Trace) clockNs() int64 { return int64(time.Since(t.start)) }

// Root returns the root span (the request span). Nil-safe.
func (t *Trace) Root() *TraceSpan {
	if t == nil {
		return nil
	}
	return t.root
}

// RequestID returns the request id the trace was started with.
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	return t.reqID
}

// TraceID returns the 32-hex-digit W3C trace id, or "" on a nil trace.
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return hex.EncodeToString(t.traceID[:])
}

// TraceParent renders the outbound W3C traceparent header for this
// trace: version 00, this process's root span id, sampled flag set.
func (t *Trace) TraceParent() string {
	if t == nil {
		return ""
	}
	return FormatTraceParent(t.traceID, t.spanID)
}

// StartSpan opens a child span under parent. A nil trace, a nil parent
// (which means the intended parent was itself dropped), a completed
// trace, or an exhausted span budget all return nil; child spans of a
// nil span are dropped with it, so truncation prunes whole subtrees and
// the drop counters record how much is missing.
func (t *Trace) StartSpan(parent *TraceSpan, name string) *TraceSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	if parent == nil {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	if t.nspans >= t.rec.maxSpans || len(parent.children) >= t.rec.maxChildren {
		parent.dropped++
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	s := &TraceSpan{t: t, name: name, startNs: t.clockNs(), endNs: spanOpen, parent: parent}
	parent.children = append(parent.children, s)
	t.nspans++
	t.mu.Unlock()
	return s
}

// EndSpan closes a span at the current monotonic offset. Nil-safe and
// idempotent; no-op after the trace completes (Complete closes any
// still-open spans itself).
func (t *Trace) EndSpan(s *TraceSpan) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	if !t.done && s.endNs == spanOpen {
		s.endNs = t.clockNs()
	}
	t.mu.Unlock()
}

// Complete freezes the trace and hands it to the flight recorder's
// ring. Spans still open are closed at the completion instant. After
// Complete the trace is immutable: span operations on it are no-ops.
// Nil-safe and idempotent.
func (t *Trace) Complete() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	now := t.clockNs()
	closeOpenSpans(t.root, now)
	t.mu.Unlock()
	t.rec.complete(t)
}

func closeOpenSpans(s *TraceSpan, now int64) {
	if s.endNs == spanOpen {
		s.endNs = now
	}
	for _, c := range s.children {
		closeOpenSpans(c, now)
	}
}

// FlightRecorder retains the last N completed traces in a ring, oldest
// first.
type FlightRecorder struct {
	maxTraces   int
	maxSpans    int
	maxChildren int

	mu   sync.Mutex
	ring []*Trace
	seq  uint64
}

// NewFlightRecorder creates a recorder retaining the last n completed
// traces (n < 1 is clamped to 1) with the default span bounds.
func NewFlightRecorder(n int) *FlightRecorder {
	return NewFlightRecorderLimits(n, DefaultMaxSpans, DefaultMaxChildren)
}

// NewFlightRecorderLimits is NewFlightRecorder with explicit per-trace
// span and per-span child bounds (mainly for tests of the bounds).
func NewFlightRecorderLimits(n, maxSpans, maxChildren int) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	if maxSpans < 1 {
		maxSpans = 1
	}
	if maxChildren < 1 {
		maxChildren = 1
	}
	return &FlightRecorder{
		maxTraces:   n,
		maxSpans:    maxSpans,
		maxChildren: maxChildren,
		ring:        make([]*Trace, 0, n),
	}
}

// Cap returns the number of traces the recorder retains.
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.maxTraces
}

// StartTrace begins a new trace whose root span is named name. reqID is
// the serving request id (used as an alternate lookup key), and
// traceparent, when it parses as a W3C traceparent header, donates the
// inbound trace id and parent span id so a coordinator→worker hop
// shares one trace id. A nil recorder returns a nil trace, which every
// Trace/TraceSpan method accepts as "tracing off".
func (r *FlightRecorder) StartTrace(name, reqID, traceparent string) *Trace {
	if r == nil {
		return nil
	}
	t := &Trace{rec: r, reqID: reqID, start: time.Now()}
	if tid, sid, ok := ParseTraceParent(traceparent); ok {
		t.traceID = tid
		t.parentID = sid
		t.hasParent = true
		randBytes(t.spanID[:])
	} else {
		randBytes(t.traceID[:])
		randBytes(t.spanID[:])
	}
	t.root = &TraceSpan{t: t, name: name, endNs: spanOpen}
	t.nspans = 1
	return t
}

// randBytes fills b from crypto/rand, falling back to a non-zero
// constant pattern if the system randomness source fails (ids must be
// non-zero to be valid traceparent material).
func randBytes(b []byte) {
	if _, err := rand.Read(b); err != nil {
		for i := range b {
			b[i] = byte(0xa5 ^ i)
		}
	}
}

// complete appends a finished trace to the ring, evicting the oldest
// trace beyond the retention cap.
func (r *FlightRecorder) complete(t *Trace) {
	r.mu.Lock()
	r.seq++
	t.seq = r.seq
	r.ring = append(r.ring, t)
	for len(r.ring) > r.maxTraces {
		copy(r.ring, r.ring[1:])
		r.ring[len(r.ring)-1] = nil
		r.ring = r.ring[:len(r.ring)-1]
	}
	r.mu.Unlock()
}

// TraceSummary is one row of the recorder listing.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	RequestID  string    `json:"request_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	Spans      int       `json:"spans"`
	Dropped    int64     `json:"dropped_spans,omitempty"`
	Seq        uint64    `json:"seq"`
}

// Traces lists retained traces, newest first.
func (r *FlightRecorder) Traces() []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.ring))
	for i := len(r.ring) - 1; i >= 0; i-- {
		t := r.ring[i]
		out = append(out, TraceSummary{
			TraceID:    hex.EncodeToString(t.traceID[:]),
			RequestID:  t.reqID,
			Name:       t.root.name,
			Start:      t.start,
			DurationNs: t.root.endNs,
			Spans:      t.nspans,
			Dropped:    t.dropped,
			Seq:        t.seq,
		})
	}
	return out
}

// Trace fetches one retained trace by trace id (32 hex digits) or by
// request id.
func (r *FlightRecorder) Trace(id string) (TraceData, bool) {
	if r == nil {
		return TraceData{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.ring) - 1; i >= 0; i-- {
		t := r.ring[i]
		if hex.EncodeToString(t.traceID[:]) == id || t.reqID == id {
			return t.snapshotLocked(), true
		}
	}
	return TraceData{}, false
}

// SpanData is a deep-copied, render-ready span.
type SpanData struct {
	Name            string      `json:"name"`
	StartNs         int64       `json:"start_ns"`
	DurationNs      int64       `json:"duration_ns"`
	Attrs           []TraceAttr `json:"attrs,omitempty"`
	DroppedChildren int64       `json:"dropped_children,omitempty"`
	Children        []SpanData  `json:"children,omitempty"`
}

// TraceData is a deep-copied, render-ready trace. It shares no memory
// with the live spans, which scan workers may still be writing.
type TraceData struct {
	TraceID      string    `json:"trace_id"`
	SpanID       string    `json:"span_id"`
	ParentSpanID string    `json:"parent_span_id,omitempty"`
	RequestID    string    `json:"request_id"`
	Start        time.Time `json:"start"`
	DurationNs   int64     `json:"duration_ns"`
	Spans        int       `json:"spans"`
	DroppedSpans int64     `json:"dropped_spans,omitempty"`
	Complete     bool      `json:"complete"`
	Root         SpanData  `json:"root"`
}

// Snapshot deep-copies the trace's current state. Valid on a live
// trace, on a completed one and on a nil trace (zero value).
func (t *Trace) Snapshot() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

func (t *Trace) snapshotLocked() TraceData {
	d := TraceData{
		TraceID:      hex.EncodeToString(t.traceID[:]),
		SpanID:       hex.EncodeToString(t.spanID[:]),
		RequestID:    t.reqID,
		Start:        t.start,
		Spans:        t.nspans,
		DroppedSpans: t.dropped,
		Complete:     t.done,
		Root:         copySpan(t.root, t.clockNs()),
	}
	if t.hasParent {
		d.ParentSpanID = hex.EncodeToString(t.parentID[:])
	}
	d.DurationNs = d.Root.DurationNs
	return d
}

// copySpan deep-copies one span; open spans report their duration as
// elapsed-so-far at the snapshot instant.
func copySpan(s *TraceSpan, now int64) SpanData {
	end := s.endNs
	if end == spanOpen {
		end = now
	}
	d := SpanData{
		Name:            s.name,
		StartNs:         s.startNs,
		DurationNs:      end - s.startNs,
		DroppedChildren: s.dropped,
	}
	if len(s.attrs) > 0 {
		d.Attrs = append([]TraceAttr(nil), s.attrs...)
	}
	if len(s.children) > 0 {
		d.Children = make([]SpanData, len(s.children))
		for i, c := range s.children {
			d.Children[i] = copySpan(c, now)
		}
	}
	return d
}

// RenderText writes the trace as an aligned tree: start offset and
// duration in fixed-width millisecond columns, then the indented span
// name and its attributes.
func (d TraceData) RenderText(w io.Writer) {
	state := "live"
	if d.Complete {
		state = "complete"
	}
	fmt.Fprintf(w, "trace %s  request %s  %s  spans %d", d.TraceID, d.RequestID, state, d.Spans)
	if d.DroppedSpans > 0 {
		fmt.Fprintf(w, " (+%d dropped)", d.DroppedSpans)
	}
	if d.ParentSpanID != "" {
		fmt.Fprintf(w, "  parent-span %s", d.ParentSpanID)
	}
	fmt.Fprintf(w, "\n")
	renderSpan(w, d.Root, 0)
}

func renderSpan(w io.Writer, s SpanData, depth int) {
	fmt.Fprintf(w, "%11.3fms %11.3fms  ", float64(s.StartNs)/1e6, float64(s.DurationNs)/1e6)
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	io.WriteString(w, s.Name)
	for _, a := range s.Attrs {
		if a.Str != "" {
			fmt.Fprintf(w, " %s=%s", a.Key, a.Str)
		} else {
			fmt.Fprintf(w, " %s=%d", a.Key, a.Val)
		}
	}
	if s.DroppedChildren > 0 {
		fmt.Fprintf(w, " [+%d children dropped]", s.DroppedChildren)
	}
	io.WriteString(w, "\n")
	for _, c := range s.Children {
		renderSpan(w, c, depth+1)
	}
}

// ParseTraceParent parses a W3C traceparent header
// (00-<32 hex trace-id>-<16 hex parent-span-id>-<2 hex flags>).
// Only version 00 is accepted; all-zero trace or span ids are invalid
// per the spec.
func ParseTraceParent(h string) (traceID [16]byte, spanID [8]byte, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return traceID, spanID, false
	}
	if _, err := hex.Decode(traceID[:], []byte(h[3:35])); err != nil {
		return traceID, spanID, false
	}
	if _, err := hex.Decode(spanID[:], []byte(h[36:52])); err != nil {
		return traceID, spanID, false
	}
	if !isHex(h[53]) || !isHex(h[54]) {
		return traceID, spanID, false
	}
	if allZero(traceID[:]) || allZero(spanID[:]) {
		return traceID, spanID, false
	}
	return traceID, spanID, true
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// FormatTraceParent renders a version-00 traceparent with the sampled
// flag set.
func FormatTraceParent(traceID [16]byte, spanID [8]byte) string {
	return "00-" + hex.EncodeToString(traceID[:]) + "-" + hex.EncodeToString(spanID[:]) + "-01"
}

// traceCtxKey keys the request trace in a context.
type traceCtxKey struct{}

// ContextWithTrace attaches the trace to ctx. A nil trace returns ctx
// unchanged so the untraced path adds no context allocation.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFromContext returns the trace attached by ContextWithTrace, or
// nil.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
