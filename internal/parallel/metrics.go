package parallel

import (
	"sync/atomic"

	"rhsd/internal/telemetry"
)

// poolMetrics is the instrument bundle For/ForIndexed feed once a
// registry has been attached. All fields are preallocated at
// registration, so the per-dispatch cost is a handful of atomic adds —
// and a single atomic pointer load when no registry is attached.
type poolMetrics struct {
	busy         *telemetry.Gauge
	runsSerial   *telemetry.Counter
	runsParallel *telemetry.Counter
	chunks       *telemetry.Counter
}

// metricsPtr holds the active bundle; nil until RegisterMetrics runs.
var metricsPtr atomic.Pointer[poolMetrics]

// RegisterMetrics attaches pool utilization metrics to reg:
//
//	rhsd_pool_workers       gauge    configured worker count
//	rhsd_pool_busy_workers  gauge    goroutines currently running chunks
//	rhsd_pool_runs_total    counter  range dispatches, by mode=serial|parallel
//	rhsd_pool_chunks_total  counter  chunks claimed across all dispatches
//
// The pool is process-global, so its metrics are too: the most recently
// registered registry receives all subsequent observations. Call once at
// daemon/CLI startup; registering the same registry twice panics on the
// duplicate series (per the telemetry registration contract).
func RegisterMetrics(reg *telemetry.Registry) {
	reg.NewGaugeFunc("rhsd_pool_workers",
		"Configured worker-pool size (goroutines a kernel dispatch may use).", "",
		func() int64 { return int64(Workers()) })
	pm := &poolMetrics{
		busy: reg.NewGauge("rhsd_pool_busy_workers",
			"Worker goroutines currently executing kernel chunks.", ""),
		runsSerial: reg.NewCounter("rhsd_pool_runs_total",
			"Kernel range dispatches, by execution mode.", `mode="serial"`),
		runsParallel: reg.NewCounter("rhsd_pool_runs_total",
			"Kernel range dispatches, by execution mode.", `mode="parallel"`),
		chunks: reg.NewCounter("rhsd_pool_chunks_total",
			"Chunks claimed across all kernel range dispatches.", ""),
	}
	metricsPtr.Store(pm)
}

// DetachMetrics clears the active bundle so dispatches stop recording,
// returning the pool to its telemetry-off state.
func DetachMetrics() { metricsPtr.Store(nil) }

// noteSerial records a dispatch that ran inline on the caller.
func noteSerial() {
	if pm := metricsPtr.Load(); pm != nil {
		pm.runsSerial.Inc()
		pm.chunks.Inc()
	}
}

// noteParallelStart records a dispatch fanning out to w goroutines over
// the given chunk count and marks them busy; the caller must pair it
// with noteParallelEnd(pm, w) after the dispatch completes. Returns nil
// when no registry is attached.
func noteParallelStart(w, chunks int) *poolMetrics {
	pm := metricsPtr.Load()
	if pm == nil {
		return nil
	}
	pm.runsParallel.Inc()
	pm.chunks.Add(int64(chunks))
	pm.busy.Add(int64(w))
	return pm
}

func noteParallelEnd(pm *poolMetrics, w int) {
	if pm != nil {
		pm.busy.Add(int64(-w))
	}
}
