package tensor

import (
	"sync/atomic"
	"time"
)

// Per-stage profiling counters for the inference hot path. The
// repository benchmark (perfbench) reads them to report where a Detect
// actually spends its time — so a claim like "gemmRows no longer
// dominates" is measured from stage counters, not asserted from kernel
// microbenchmarks.
//
// Design constraints, in order:
//
//   - Zero cost when off: every instrumented site pays one atomic bool
//     load and a predictable branch, nothing else. No timestamps are
//     taken and no allocation ever happens on either setting.
//   - Safe under the worker pool: counters are atomic adds, so stages
//     that run inside parallel.For (packed GEMM column blocks, batched
//     conv items) aggregate correctly. Consequently a stage's time is
//     CPU time summed across workers, which can exceed wall time on
//     multi-worker hosts; the bench reports shares of the summed
//     profile, which stays meaningful either way.
//   - Stages never nest: gemm_rows/gemm_packed/qgemm are leaf compute
//     sweeps, im2col instruments only the materialized lowering (the
//     fused path has no separate lowering to time) and quantize is the
//     int8 entry boundary. Shares therefore add up.

// profStage indexes one instrumented stage.
type profStage int

const (
	profGemmRows   profStage = iota // scalar row-kernel fp32 GEMM
	profGemmPacked                  // packed cache-blocked fp32 GEMM
	profQGemm                       // packed int8 GEMM sweep
	profIm2col                      // materialized im2col lowering
	profQuantize                    // fp32→uint8 activation quantization
	profStageCount
)

// profStageNames are the external names, in profStage order.
var profStageNames = [profStageCount]string{
	"gemm_rows",
	"gemm_packed",
	"qgemm",
	"im2col",
	"quantize",
}

var profEnabled atomic.Bool

// profCounters holds the accumulated nanoseconds and call counts per
// stage.
var profCounters [profStageCount]struct {
	ns    atomic.Int64
	calls atomic.Int64
}

// SetProfiling enables or disables stage profiling, returning the
// previous setting. Off is the default and costs one atomic load per
// instrumented call; on adds two monotonic clock reads per call.
func SetProfiling(on bool) (prev bool) {
	return profEnabled.Swap(on)
}

// ResetProfile zeroes all stage counters.
func ResetProfile() {
	for i := range profCounters {
		profCounters[i].ns.Store(0)
		profCounters[i].calls.Store(0)
	}
}

// ProfileEntry is one stage's accumulated time and call count.
type ProfileEntry struct {
	Stage string
	Ns    int64
	Calls int64
}

// ProfileSnapshot returns the current per-stage counters in stable
// (profStage) order, including stages with zero accumulated time.
func ProfileSnapshot() []ProfileEntry {
	out := make([]ProfileEntry, profStageCount)
	for i := range profCounters {
		out[i] = ProfileEntry{
			Stage: profStageNames[i],
			Ns:    profCounters[i].ns.Load(),
			Calls: profCounters[i].calls.Load(),
		}
	}
	return out
}

// ProfileScope accumulates the same per-stage counters as the global
// profile, but for one attributable unit of work — in practice one
// trace span (a megatile forward pass). The request tracer installs a
// scope on the model's Workspace before a pass and snapshots it after,
// so concurrent requests stop smearing each other's gemm/quantize time:
// each instrumented site adds the identical elapsed value to the global
// counters and to the lexically threaded scope, which makes per-scope
// sums equal the global snapshot delta exactly (pinned by
// TestProfileScopeParity).
//
// Counters are atomic because a scoped pass still fans batched conv
// items out over the worker pool; the scope pointer itself is threaded
// lexically (function arguments, captured by the parallel.For closures)
// rather than held in any package global, so two models inferring
// concurrently attribute to their own scopes with no cross-talk.
type ProfileScope struct {
	ns    [profStageCount]atomic.Int64
	calls [profStageCount]atomic.Int64
}

// Reset zeroes the scope's counters for reuse across passes.
func (s *ProfileScope) Reset() {
	for i := range s.ns {
		s.ns[i].Store(0)
		s.calls[i].Store(0)
	}
}

// Snapshot returns the scope's counters in the same stable order as
// ProfileSnapshot.
func (s *ProfileScope) Snapshot() []ProfileEntry {
	out := make([]ProfileEntry, profStageCount)
	for i := range s.ns {
		out[i] = ProfileEntry{
			Stage: profStageNames[i],
			Ns:    s.ns[i].Load(),
			Calls: s.calls[i].Load(),
		}
	}
	return out
}

// profStart samples the monotonic clock when profiling is on. The
// (enabled, t0) pair keeps the off-path to a single atomic load and
// lets profEnd skip the second clock read; time.Time stays on the
// caller's stack, so instrumentation never allocates.
func profStart() (bool, time.Time) {
	if !profEnabled.Load() {
		return false, time.Time{}
	}
	return true, time.Now()
}

// profEnd accumulates the elapsed time into a stage's counters, and
// into sc when non-nil. One clock read feeds both, so a scope's totals
// can never drift from the global profile's view of the same calls.
func profEnd(on bool, sc *ProfileScope, st profStage, t0 time.Time) {
	if !on {
		return
	}
	d := int64(time.Since(t0))
	profCounters[st].ns.Add(d)
	profCounters[st].calls.Add(1)
	if sc != nil {
		sc.ns[st].Add(d)
		sc.calls[st].Add(1)
	}
}
