package hsd

import (
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
)

// Request-trace glue for the detection pipeline: SetTrace attaches a
// flight-recorder trace to a model for the duration of one request, and
// workTrace hands scan workers a per-megatile span for exactly one work
// item. With no trace attached every hook below is a nil check,
// preserving the zero-allocation steady state (pinned by the alloc
// guards and telemetry's TestNilTraceIsNoOp).

// SetTrace attaches (or, with nil, detaches) the request trace: stage
// spans opened by this model parent under parent, and layout scans add
// their scan/megatile span tree beneath it. The caller owns the
// trace's lifecycle — detach before completing the trace, since span
// handles must not be used after Trace.Complete. Unlike instruments the
// trace is pass state, so it reaches neither clones nor scan workers;
// see the passState.trace field comment.
func (m *Model) SetTrace(tr *telemetry.Trace, parent *telemetry.TraceSpan) {
	m.trace = tr
	m.tspan = parent
}

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

// workTrace is the restore state for one traced work item on a scan
// worker. The zero value (untraced scan) ends as a no-op.
type workTrace struct {
	mw        *Model
	span      *telemetry.TraceSpan
	prevTrace *telemetry.Trace
	prevSpan  *telemetry.TraceSpan
	prevScope *tensor.ProfileScope
	scope     *tensor.ProfileScope
}

// beginWorkTrace opens a megatile span under parent for one work item
// and prepares scan worker mw to attribute to it: mw's stage spans parent
// under the new span, and mw's workspace gets a reset profile scope so
// tensor stage time lands on this span. tr and parent are passed as
// explicit values — not read from m — because the primary model is
// itself one of the scan workers, and reading m's trace fields from
// sibling goroutines would race with this function's restore writes.
func beginWorkTrace(tr *telemetry.Trace, parent *telemetry.TraceSpan, mw *Model, worker int) workTrace {
	if tr == nil {
		return workTrace{}
	}
	sp := tr.StartSpan(parent, "megatile")
	wt := workTrace{
		mw:        mw,
		span:      sp,
		prevTrace: mw.trace,
		prevSpan:  mw.tspan,
		prevScope: mw.ws.ProfileScope(),
	}
	mw.trace, mw.tspan = tr, sp
	if sp != nil {
		sp.SetAttr("worker", int64(worker))
		if mw.profScope == nil {
			mw.profScope = &tensor.ProfileScope{}
		}
		mw.profScope.Reset()
		mw.ws.SetProfileScope(mw.profScope)
		wt.scope = mw.profScope
	}
	return wt
}

// end restores the scan worker and closes the work span, first copying the
// profile scope's non-zero stages onto it as *_ns attributes.
func (wt workTrace) end(tr *telemetry.Trace) {
	if wt.mw == nil {
		return
	}
	wt.mw.ws.SetProfileScope(wt.prevScope)
	wt.mw.trace, wt.mw.tspan = wt.prevTrace, wt.prevSpan
	if wt.scope != nil {
		for i, e := range wt.scope.Snapshot() {
			if e.Calls > 0 && i < len(profAttrKeys) {
				wt.span.SetAttr(profAttrKeys[i], e.Ns)
			}
		}
	}
	tr.EndSpan(wt.span)
}
