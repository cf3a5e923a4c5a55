package hsd

import (
	"rhsd/internal/telemetry"
)

// Stage identifies one timed section of the detection pipeline, in the
// order the paper presents them: the feature-extraction backbone (§3.1),
// the joint encoder-decoder (§3.1.1), the inception chain (Figure 3),
// the clip proposal network heads (§3.2), proposal decoding and pruning
// (§3.2.1), hotspot NMS (§3.2.2, Alg. 1), and RoI refinement (§3.3).
type Stage int

const (
	StageBackbone Stage = iota
	StageEncDec
	StageInception
	StageCPN
	StagePruning
	StageHNMS
	StageRefine
	numStages
)

// stageNames are the `stage` label values on rhsd_detect_stage_seconds
// and the runtime/trace region names — constants, so span setup stays
// allocation-free.
var stageNames = [numStages]string{
	"backbone", "encdec", "inception", "cpn", "pruning", "hnms", "refine",
}

// stageLabels are the preformatted Prometheus label bodies.
var stageLabels = [numStages]string{
	`stage="backbone"`, `stage="encdec"`, `stage="inception"`, `stage="cpn"`,
	`stage="pruning"`, `stage="hnms"`, `stage="refine"`,
}

// StageBuckets spans 100µs–25s: TinyConfig stages sit in the lowest
// buckets, a paper-scale 224-px pass in the middle, and a large megatile
// forward pass near the top.
var StageBuckets = telemetry.ExpBuckets(0.0001, 2.5, 14)

// Instruments is the preallocated telemetry bundle one Model (and all
// its clones and scan workers) records into. Build one per Registry
// with NewInstruments at startup and attach it with Model.SetInstruments;
// every field is safe for concurrent writers, and every observation on
// the detection hot path is allocation-free (the AllocsPerRun guards run
// with instruments attached).
type Instruments struct {
	// DetectPasses counts forward passes through Detect — one per
	// megatile in a layout scan, one per region Detect call.
	DetectPasses *telemetry.Counter
	// MegatilesScanned counts megatiles a layout scan rasterized
	// (rhsd_scan_tiles_total{kind="megatile"}); MegatilesReused counts
	// megatiles an incremental rescan served from retained results
	// without re-rasterizing (kind="megatile_reused").
	MegatilesScanned *telemetry.Counter
	MegatilesReused  *telemetry.Counter
	// ProposalsKept / ProposalsSuppressed count CPN proposals surviving
	// or removed by pruning + h-NMS
	// (rhsd_detect_proposals_total{fate="kept"|"suppressed"}).
	ProposalsKept       *telemetry.Counter
	ProposalsSuppressed *telemetry.Counter
	// Detections counts final reported hotspot clips.
	Detections *telemetry.Counter
	// WorkspaceBytes is the inference-workspace footprint (bytes, summed
	// over scan workers) as of the last layout scan on the instrumented
	// model.
	WorkspaceBytes *telemetry.Gauge

	stages [numStages]*telemetry.Histogram
}

// NewInstruments builds the detection metric set on reg. Metric names
// are part of the operational contract documented in DESIGN.md §13;
// registering twice on one registry panics (duplicate series).
func NewInstruments(reg *telemetry.Registry) *Instruments {
	ins := &Instruments{
		DetectPasses: reg.NewCounter("rhsd_detect_passes_total",
			"Forward detection passes (one per megatile or region).", ""),
		MegatilesScanned: reg.NewCounter("rhsd_scan_tiles_total",
			"Scan work items by kind.", `kind="megatile"`),
		MegatilesReused: reg.NewCounter("rhsd_scan_tiles_total",
			"Scan work items by kind.", `kind="megatile_reused"`),
		ProposalsKept: reg.NewCounter("rhsd_detect_proposals_total",
			"CPN proposals by fate after pruning and h-NMS.", `fate="kept"`),
		ProposalsSuppressed: reg.NewCounter("rhsd_detect_proposals_total",
			"CPN proposals by fate after pruning and h-NMS.", `fate="suppressed"`),
		Detections: reg.NewCounter("rhsd_detect_detections_total",
			"Final reported hotspot clips.", ""),
		WorkspaceBytes: reg.NewGauge("rhsd_workspace_bytes",
			"Inference workspace footprint after the last layout scan.", ""),
	}
	for st := Stage(0); st < numStages; st++ {
		ins.stages[st] = reg.NewHistogram("rhsd_detect_stage_seconds",
			"Wall time per detection pipeline stage.", stageLabels[st], StageBuckets)
	}
	return ins
}

// StageHistogram returns the latency histogram of one pipeline stage.
func (ins *Instruments) StageHistogram(st Stage) *telemetry.Histogram {
	return ins.stages[st]
}

// SetInstruments attaches (or, with nil, detaches) a telemetry bundle.
// Future Clone calls inherit it and scan workers take it at the start of
// every scan, so pooled serving workers and scan workers all aggregate
// into the same series.
func (m *Model) SetInstruments(ins *Instruments) { m.ins = ins }

// Instruments returns the attached telemetry bundle, nil if disabled.
func (m *Model) Instruments() *Instruments { return m.ins }

// stageSpan starts a stage timer. With no instruments attached and no
// execution trace running this is two branches and no allocation; with
// instruments it records into the stage histogram, and under
// rhsd-detect/rhsd-bench -trace it additionally opens a same-named
// runtime/trace region so `go tool trace` shows the exact histogram
// boundaries.
// During a traced scan work item (beginWork) the same boundary also
// opens a child span in the flight-recorder tree under the megatile
// span.
func (m *Model) stageSpan(st Stage) telemetry.Span { return m.stageSpanUnder(st, m.trace, m.tspan) }

// stageSpanUnder is stageSpan with the request trace and parent span
// given explicitly.
func (m *Model) stageSpanUnder(st Stage, tr *telemetry.Trace, parent *telemetry.TraceSpan) telemetry.Span {
	var h *telemetry.Histogram
	if ins := m.ins; ins != nil {
		h = ins.stages[st]
	}
	return telemetry.StartSpanTraced(h, stageNames[st], tr, parent)
}
