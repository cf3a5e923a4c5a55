package hsd

import (
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
)

// Request-trace glue for the detection pipeline. A scan finds its
// trace on the request context (telemetry.ContextWithTrace), opens its
// scan span under the trace root, and hands each scan worker the
// per-megatile span for exactly one work item: beginWork sets the
// worker's trace handles and profile scope, endWork clears them. With
// no trace every hook below is a nil check, preserving the
// zero-allocation steady state (pinned by the alloc guards and
// telemetry's TestNilTraceIsNoOp).

// profAttrKeys are the span attribute names for per-span tensor stage
// time, index-aligned with tensor.ProfileScope.Snapshot order. Constant
// strings so snapshotting a scope into a span never builds keys.
var profAttrKeys = [...]string{
	"gemm_rows_ns",
	"gemm_packed_ns",
	"qgemm_ns",
	"im2col_ns",
	"quantize_ns",
}

// beginWork opens a megatile span under parent for one work item and
// points scan worker m at it: m's stage spans parent under the new
// span, and m's workspace gets a reset profile scope so tensor stage
// time lands on this span. tr and parent are passed as explicit values —
// not read from the primary model — because the primary model is itself
// one of the scan workers, and reading its trace fields from sibling
// goroutines would race with the writes here. It returns the megatile
// span (nil when untraced or dropped by the span budget).
func (m *Model) beginWork(tr *telemetry.Trace, parent *telemetry.TraceSpan, worker int) *telemetry.TraceSpan {
	if tr == nil {
		return nil
	}
	sp := tr.StartSpan(parent, "megatile")
	m.trace, m.tspan = tr, sp
	if sp != nil {
		sp.SetAttr("worker", int64(worker))
		if m.profScope == nil {
			m.profScope = &tensor.ProfileScope{}
		}
		m.profScope.Reset()
		m.ws.SetProfileScope(m.profScope)
	}
	return sp
}

// endWork clears what beginWork set on m and closes the work span,
// first copying the profile scope's non-zero stages onto it as *_ns
// attributes.
func (m *Model) endWork(tr *telemetry.Trace, sp *telemetry.TraceSpan) {
	if tr == nil {
		return
	}
	m.trace, m.tspan = nil, nil
	if sp != nil {
		m.ws.SetProfileScope(nil)
		for i, e := range m.profScope.Snapshot() {
			if e.Calls > 0 && i < len(profAttrKeys) {
				sp.SetAttr(profAttrKeys[i], e.Ns)
			}
		}
	}
	tr.EndSpan(sp)
}
