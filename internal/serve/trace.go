package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"rhsd/internal/cpu"
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
)

// This file holds the serve-side half of the request-trace flight
// recorder (DESIGN.md §18): the GET /traces endpoints, slow-scan
// structured logging, and the rhsd_build_info gauge that stamps every
// exposition with the exact kernels the pool dispatches to.

// BuildInfo identifies the serving binary and its dispatched kernels —
// the same facts as the rhsd_build_info gauge labels, surfaced on
// /statusz so one curl answers "what exactly is this host running".
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	// CPUFeatures is the detected instruction-set list, joined with "+"
	// (e.g. "avx2+fma+sse2"), matching the benchmark report format.
	CPUFeatures string `json:"cpu_features"`
	// GemmKernel / QGemmKernel are the fp32 and int8 GEMM micro-kernels
	// runtime dispatch selected on this host.
	GemmKernel  string `json:"gemm_kernel"`
	QGemmKernel string `json:"qgemm_kernel"`
	// Precision is the pool-wide numeric path; Int8Armed reports whether
	// startup calibration armed the int8 trunk.
	Precision string `json:"precision"`
	Int8Armed bool   `json:"int8_armed"`
}

// buildInfo assembles the server's identity facts. Kernel names are read
// once here, not per scrape: dispatch is fixed after init, and the pool's
// precision is fixed after New.
func (s *Server) buildInfo() BuildInfo {
	return BuildInfo{
		GoVersion:   runtime.Version(),
		CPUFeatures: strings.Join(cpu.X86.FeatureList(), "+"),
		GemmKernel:  tensor.GemmKernel(),
		QGemmKernel: tensor.QGemmKernel(),
		Precision:   s.defaultPrecision,
		Int8Armed:   s.int8Armed,
	}
}

// registerBuildInfo exposes bi as the constant-1 rhsd_build_info gauge,
// the standard Prometheus idiom for joining version facts onto any other
// series by label.
func registerBuildInfo(reg *telemetry.Registry, bi BuildInfo) {
	labels := fmt.Sprintf(
		`go_version=%q,cpu=%q,gemm_kernel=%q,qgemm_kernel=%q,precision=%q,int8_armed=%q`,
		bi.GoVersion, bi.CPUFeatures, bi.GemmKernel, bi.QGemmKernel,
		bi.Precision, fmt.Sprint(bi.Int8Armed))
	reg.NewGaugeFunc("rhsd_build_info",
		"Build and dispatch identity; constant 1, information is in the labels.",
		labels, func() int64 { return 1 })
}

// handleTraces lists the flight recorder's retained traces, newest
// first, as JSON summaries (trace id, request id, duration, span count).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		s.fail(w, http.StatusNotFound, "tracing disabled (start with FlightRecorder >= 0)")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.rec.Cap(),
		"traces":   s.rec.Traces(),
	})
}

// handleTrace serves one retained trace: GET /traces/{id} (trace id or
// request id) as the full span tree in JSON, or with ?format=txt as an
// aligned text tree for humans.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		s.fail(w, http.StatusNotFound, "tracing disabled (start with FlightRecorder >= 0)")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/traces/")
	if id == "" || strings.Contains(id, "/") {
		s.fail(w, http.StatusBadRequest, "want /traces/{trace_id or request_id}")
		return
	}
	data, ok := s.rec.Trace(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no retained trace %q (the recorder keeps the last %d)",
			id, s.rec.Cap())
		return
	}
	if r.URL.Query().Get("format") == "txt" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		data.RenderText(w)
		return
	}
	writeJSON(w, http.StatusOK, data)
}

// finishTrace stamps the scan outcome on the root span, completes the
// trace into the recorder's ring, and emits the slow-scan dump when the
// detection exceeded the configured threshold. The handler calls it
// once its scan has returned, before it answers, so the trace a
// response names is already complete.
func (s *Server) finishTrace(tr *telemetry.Trace, out scanOutcome, err error, elapsed time.Duration) {
	if tr == nil {
		return
	}
	root := tr.Root()
	if err != nil {
		root.SetAttrStr("error", err.Error())
	} else {
		root.SetAttr("detections", int64(len(out.dets)))
		root.SetAttr("scan_id", out.scanID)
	}
	tr.Complete()
	if err == nil && s.cfg.SlowScan > 0 && elapsed >= s.cfg.SlowScan {
		s.logSlowScan(tr.Snapshot(), elapsed)
	}
}

// logSlowScan reports a slow detection with the worst megatile chain:
// the longest megatile span under the scan span, its cache outcome
// and worker, and the stage child that dominated it.
func (s *Server) logSlowScan(snap telemetry.TraceData, elapsed time.Duration) {
	args := []any{
		"trace_id", snap.TraceID,
		"request_id", snap.RequestID,
		"elapsed_ms", float64(elapsed.Nanoseconds()) / 1e6,
		"spans", snap.Spans,
		"threshold_ms", float64(s.cfg.SlowScan.Nanoseconds()) / 1e6,
	}
	if worst, ok := worstWorkSpan(snap.Root); ok {
		args = append(args,
			"worst_span", worst.Name,
			"worst_ms", float64(worst.DurationNs)/1e6)
		for _, a := range worst.Attrs {
			if a.Str != "" {
				args = append(args, "worst_"+a.Key, a.Str)
			} else {
				args = append(args, "worst_"+a.Key, a.Val)
			}
		}
		if stage, ok := longestChild(worst); ok {
			args = append(args,
				"worst_stage", stage.Name,
				"worst_stage_ms", float64(stage.DurationNs)/1e6)
		}
	}
	s.log.Warn("slow scan", args...)
}

// worstWorkSpan finds the longest megatile span anywhere in the tree
// (they only occur under scan/rescan spans).
func worstWorkSpan(sp telemetry.SpanData) (telemetry.SpanData, bool) {
	var best telemetry.SpanData
	found := false
	var walk func(telemetry.SpanData)
	walk = func(s telemetry.SpanData) {
		if s.Name == "megatile" && (!found || s.DurationNs > best.DurationNs) {
			best, found = s, true
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(sp)
	return best, found
}

// longestChild returns sp's longest direct child span.
func longestChild(sp telemetry.SpanData) (telemetry.SpanData, bool) {
	var best telemetry.SpanData
	found := false
	for _, c := range sp.Children {
		if !found || c.DurationNs > best.DurationNs {
			best, found = c, true
		}
	}
	return best, found
}
