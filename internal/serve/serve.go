// Package serve implements the R-HSD detection daemon behind rhsd-serve:
// a pool of model clones fronted by an HTTP API.
//
//	POST /detect   layout text (BOUNDS/RECT) in, JSON detections out
//	GET  /healthz  liveness (503 while draining)
//	GET  /statusz  pool, queue, workspace and request counters as JSON
//	GET  /metrics  Prometheus text exposition (internal/telemetry)
//	GET  /debug/pprof/*  profiling handlers, only with Config.EnablePprof
//
// Design (DESIGN.md §12): every request is one unit of work handled by
// one pooled model clone whose scan concurrency is capped so the total
// goroutine budget stays at parallel.Workers() regardless of pool size —
// cross-request parallelism replaces the CLI's nested per-scan fan-out.
// Admission is a bounded queue that sheds load with 429 instead of
// buffering unboundedly. Each request runs its scan on its own handler
// goroutine through hsd.Model.Scan, with a context carrying its
// deadline and its trace: the scan checks the context before each
// megatile, so a request past its deadline — or whose client went away —
// stops at the next megatile boundary, answers 504 and frees its worker
// then, at most one megatile pass late. Shutdown stops admissions and
// drains in-flight work; idle servers trim per-clone workspaces back to
// their budget. All detection runs behind the guard.Run error boundary,
// so a panic anywhere in the inference stack becomes a 500 response and
// the daemon keeps serving.
//
// Observability (DESIGN.md §13): every request/response/latency series
// lives in a telemetry.Registry — the same registry that carries the
// model's per-stage histograms and the worker pool's utilization gauges —
// and /statusz is derived from those instruments, so the JSON status and
// the Prometheus exposition can never disagree. Requests get sequential
// IDs (echoed in the X-Request-Id response header) that structured logs,
// including recovered panic reports, carry as an attribute.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rhsd/internal/guard"
	"rhsd/internal/hsd"
	"rhsd/internal/layout"
	"rhsd/internal/parallel"
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
)

// Config tunes one Server. The zero value of every field selects a
// production-safe default (see withDefaults); fields with meaningful zero
// values use explicit sentinels, documented per field.
type Config struct {
	// Pool is the number of model clones, i.e. concurrent detections
	// (0 = parallel.Workers()).
	Pool int
	// QueueDepth is how many admitted requests may wait for a model
	// beyond the Pool already running; anything past Pool+QueueDepth is
	// shed with 429. Negative = default (2×Pool); 0 = no waiting room.
	QueueDepth int
	// Timeout bounds one request's wait-plus-detection time
	// (0 = 60s; negative = no deadline).
	Timeout time.Duration
	// MaxBodyBytes caps the /detect request body (0 = 16 MiB).
	MaxBodyBytes int64
	// Limits bound the parsed layout (zero fields = layout.DefaultLimits).
	Limits layout.Limits
	// MegatileFactor selects the scan: 0 = auto-size from MegatileMemMiB
	// per request window, N>0 = fixed N×N regions per pass. Negative
	// values are rejected by New.
	MegatileFactor int
	// MegatileMemMiB is the per-clone workspace budget driving the auto
	// factor (0 = 512).
	MegatileMemMiB int
	// CacheMemMiB bounds the content-addressed megatile result cache
	// shared by every pooled clone (internal/scancache): scans look each
	// megatile up by its raster content + weights version before running
	// the forward pass. 0 disables caching. Stale entries after a weight
	// change need no explicit invalidation — the weights version is part
	// of every key, so they simply become unreachable and age out by LRU.
	CacheMemMiB int
	// ScoreThreshold overrides the model's reporting threshold when
	// non-negative (an explicit 0 is honored); negative = model default.
	ScoreThreshold float64
	// Precision selects the trunk numeric path every pooled clone starts
	// with: hsd.PrecisionFP32 (default, "" included) or hsd.PrecisionInt8.
	// Int8 requires Calibration.
	Precision string
	// Calibration rasters arm the int8 trunk at startup: the model
	// sweeps its activation ranges over them and quantizes its weights
	// before the pool is cloned. Required when Precision is int8, and
	// for per-request ?precision=int8 overrides; empty leaves the int8
	// path unarmed (requests asking for it answer 400).
	Calibration []*tensor.Tensor
	// IdleTrim is how long the server must sit idle before per-clone
	// workspaces are trimmed (0 = 1 min; negative = never trim).
	IdleTrim time.Duration
	// TrimFloats is the per-workspace float32 budget left after an idle
	// trim; 0 releases all retained scratch.
	TrimFloats int
	// Registry receives every serve/pool/model instrument and backs
	// GET /metrics. nil = a fresh private registry (see Server.Registry).
	// A registry must not be shared between Servers: the second New would
	// panic on duplicate series.
	Registry *telemetry.Registry
	// FlightRecorder is how many completed request traces GET /traces
	// retains (the span-tree flight recorder, DESIGN.md §18). 0 = 32;
	// negative disables tracing entirely — requests then thread a nil
	// trace and pay only nil checks on the hot path.
	FlightRecorder int
	// SlowScan, when positive, logs a structured trace dump (worst
	// megatile chain included) for every detection whose scan takes at
	// least this long. 0 disables slow-scan logging.
	SlowScan time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints on a production port are a foot-gun.
	EnablePprof bool
	// Logger receives structured operational logs, including panic
	// reports recovered at the error boundary (nil = slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = parallel.Workers()
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 2 * c.Pool
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MegatileMemMiB <= 0 {
		c.MegatileMemMiB = 512
	}
	if c.IdleTrim == 0 {
		c.IdleTrim = time.Minute
	}
	if c.FlightRecorder == 0 {
		c.FlightRecorder = 32
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// serveMetrics is the daemon's instrument bundle, registered once at New.
// /statusz reads these same instruments, so JSON status and Prometheus
// exposition always agree.
type serveMetrics struct {
	requests   *telemetry.Counter // every admitted /detect request
	respOK     *telemetry.Counter // responses by class
	respClient *telemetry.Counter
	respServer *telemetry.Counter
	shed       *telemetry.Counter   // 429s from a full queue
	timeouts   *telemetry.Counter   // deadline hit waiting or detecting
	detections *telemetry.Counter   // hotspots reported across responses
	inflight   *telemetry.Gauge     // requests between admission and response
	latency    *telemetry.Histogram // successful /detect wall time
	queueWait  *telemetry.Histogram // admission-to-worker wait
}

func newServeMetrics(reg *telemetry.Registry) *serveMetrics {
	const respHelp = "Responses sent, by status class."
	return &serveMetrics{
		requests: reg.NewCounter("rhsd_serve_requests_total",
			"Detect requests admitted (past the draining check).", ""),
		respOK:     reg.NewCounter("rhsd_serve_responses_total", respHelp, `class="2xx"`),
		respClient: reg.NewCounter("rhsd_serve_responses_total", respHelp, `class="4xx"`),
		respServer: reg.NewCounter("rhsd_serve_responses_total", respHelp, `class="5xx"`),
		shed: reg.NewCounter("rhsd_serve_shed_total",
			"Requests shed with 429 because the admission queue was full.", ""),
		timeouts: reg.NewCounter("rhsd_serve_timeout_total",
			"Requests that hit their deadline waiting for or running a detection.", ""),
		detections: reg.NewCounter("rhsd_serve_detections_total",
			"Hotspot detections reported across all successful responses.", ""),
		inflight: reg.NewGauge("rhsd_serve_inflight",
			"Requests currently between admission and response.", ""),
		latency: reg.NewHistogram("rhsd_serve_request_seconds",
			"Successful /detect wall time (admission to response) in seconds.", "",
			telemetry.ExpBuckets(0.001, 2.5, 14)),
		queueWait: reg.NewHistogram("rhsd_serve_queue_wait_seconds",
			"Wait from admission until a pooled model became available.", "",
			telemetry.ExpBuckets(0.0001, 4, 10)),
	}
}

// worker is one pooled model clone plus its last observed workspace
// footprint (bytes), stored atomically so /statusz can report memory
// without touching a model that another goroutine may be driving.
type worker struct {
	m         *hsd.Model
	footprint atomic.Int64
}

// scanHistoryDepth bounds how many recent scans /detect?since= can
// reference. DFM loops re-submit against the immediately preceding scan,
// so a short ring suffices; a since id that has aged out degrades to a
// cold scan, never an error.
const scanHistoryDepth = 8

// scanEntry is one retained scan: the layout served and its ScanResult
// (both immutable once stored), addressable by the scan id echoed in the
// response. trace is the flight-recorder trace id of the request that
// produced the scan ("" when tracing is off) — the join key between
// /statusz scan history, /metrics exemplars and GET /traces/{id}.
type scanEntry struct {
	id    int64
	l     *layout.Layout
	res   *hsd.ScanResult
	trace string
}

// scanHistory is a small mutex-guarded ring of recent scans.
type scanHistory struct {
	mu      sync.Mutex
	depth   int
	nextID  int64
	entries []scanEntry // oldest first
}

func newScanHistory(depth int) *scanHistory {
	return &scanHistory{depth: depth}
}

// add retains (l, res) and returns its scan id (ids start at 1).
func (h *scanHistory) add(l *layout.Layout, res *hsd.ScanResult, trace string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	h.entries = append(h.entries, scanEntry{id: h.nextID, l: l, res: res, trace: trace})
	if len(h.entries) > h.depth {
		h.entries = append(h.entries[:0], h.entries[len(h.entries)-h.depth:]...)
	}
	return h.nextID
}

// ScanHistoryEntry is one retained scan in the /statusz listing.
type ScanHistoryEntry struct {
	ScanID       int64  `json:"scan_id"`
	TraceID      string `json:"trace_id,omitempty"`
	TilesScanned int    `json:"tiles_scanned"`
	TilesReused  int    `json:"tiles_reused"`
	Detections   int    `json:"detections"`
}

// list summarizes the retained scans, newest first.
func (h *scanHistory) list() []ScanHistoryEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]ScanHistoryEntry, 0, len(h.entries))
	for i := len(h.entries) - 1; i >= 0; i-- {
		e := h.entries[i]
		out = append(out, ScanHistoryEntry{
			ScanID:       e.id,
			TraceID:      e.trace,
			TilesScanned: e.res.TilesScanned,
			TilesReused:  e.res.TilesReused,
			Detections:   len(e.res.Detections),
		})
	}
	return out
}

// get returns the retained scan with the given id, if still present.
func (h *scanHistory) get(id int64) (scanEntry, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range h.entries {
		if e.id == id {
			return e, true
		}
	}
	return scanEntry{}, false
}

// Server is the detection daemon. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	cfg     Config
	perScan int // scan-goroutine cap applied to each pooled model
	pool    chan *worker
	workers []*worker
	sem     chan struct{} // admission: Pool+QueueDepth slots

	reg *telemetry.Registry
	met *serveMetrics
	log *slog.Logger

	// rec is the request-trace flight recorder behind GET /traces
	// (nil = tracing disabled).
	rec *telemetry.FlightRecorder

	// defaultPrecision is the pool-wide numeric path (cfg.Precision
	// normalized); int8Armed records whether startup calibration ran, the
	// precondition for per-request ?precision=int8 overrides.
	defaultPrecision string
	int8Armed        bool

	// cache is the shared megatile result cache (nil = disabled); hist
	// retains recent scan results for /detect?since= incremental rescans.
	cache *hsd.DetCache
	hist  *scanHistory

	mu       sync.RWMutex // guards closed vs. inflight.Add
	closed   bool
	inflight sync.WaitGroup

	start      time.Time
	lastActive atomic.Int64 // UnixNano of the last /detect admission
	reqID      atomic.Int64 // sequential request ids for logs + X-Request-Id

	stopTrim chan struct{}
	trimDone chan struct{}

	// testHook, when set, runs inside the detection error boundary before
	// the scan, with the request's scan context; tests use it to stall a
	// worker or inject a panic.
	testHook func(ctx context.Context)
}

// New builds a Server around m: the pool's first worker is m itself, the
// rest are clones, each capped to scan with parallel.Workers()/Pool
// goroutines (at least 1) so a fully busy pool uses the same compute
// budget as one CLI scan. m must not be used by the caller afterwards.
//
// New wires the full observability stack into the registry: serve
// request/latency series, the worker pool's utilization gauges
// (parallel.RegisterMetrics) and — unless the model already carries an
// instrument bundle — per-stage detection histograms via
// hsd.NewInstruments, shared by every pooled clone.
func New(m *hsd.Model, cfg Config) (*Server, error) {
	if m == nil {
		return nil, errors.New("serve: nil model")
	}
	if cfg.MegatileFactor < 0 {
		return nil, fmt.Errorf("serve: megatile factor %d, want 0 (auto) or a positive factor", cfg.MegatileFactor)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		perScan: scanWorkersPerModel(cfg.Pool),
		pool:    make(chan *worker, cfg.Pool),
		sem:     make(chan struct{}, cfg.Pool+cfg.QueueDepth),
		reg:     cfg.Registry,
		log:     cfg.Logger,
		hist:    newScanHistory(scanHistoryDepth),
		start:   time.Now(),
	}
	s.met = newServeMetrics(s.reg)
	parallel.RegisterMetrics(s.reg)
	if cfg.FlightRecorder > 0 {
		s.rec = telemetry.NewFlightRecorder(cfg.FlightRecorder)
		// Per-span tensor stage attribution (gemm/im2col/quantize time on
		// megatile spans) rides the tensor profiling counters.
		tensor.SetProfiling(true)
	}
	if m.Instruments() == nil {
		m.SetInstruments(hsd.NewInstruments(s.reg))
	}
	if cfg.CacheMemMiB > 0 {
		// One cache for the whole pool, attached before cloning so every
		// worker inherits it: the workers' weights are bit-identical, so
		// they share keys and one worker's scan warms the others.
		s.cache = hsd.NewDetCache(int64(cfg.CacheMemMiB) << 20)
		s.cache.RegisterMetrics(s.reg)
		m.SetScanCache(s.cache)
	}
	// Arm and select the numeric path before cloning: clones inherit the
	// calibration (plans are shared by reference) and the precision, so
	// the whole pool serves one consistent configuration.
	if len(cfg.Calibration) > 0 {
		if err := m.CalibrateInt8(cfg.Calibration); err != nil {
			return nil, fmt.Errorf("serve: int8 calibration: %w", err)
		}
	}
	if err := m.SetPrecision(cfg.Precision); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.defaultPrecision = m.Precision()
	s.int8Armed = m.Int8Calibrated()
	for i := 0; i < cfg.Pool; i++ {
		cm := m
		if i > 0 {
			var err error
			if cm, err = m.Clone(); err != nil {
				return nil, fmt.Errorf("serve: cloning model %d/%d: %w", i, cfg.Pool, err)
			}
		}
		if cfg.ScoreThreshold >= 0 {
			cm.Config.ScoreThreshold = cfg.ScoreThreshold
		}
		cm.SetScanWorkers(s.perScan)
		wk := &worker{m: cm}
		s.workers = append(s.workers, wk)
		s.pool <- wk
	}
	// Registered after precision arming so the labels report the path the
	// pool actually serves.
	registerBuildInfo(s.reg, s.buildInfo())
	s.reg.NewGaugeFunc("rhsd_serve_workspace_bytes",
		"Retained workspace bytes across all pooled model clones.", "",
		s.workspaceBytes)
	s.reg.NewGaugeFunc("rhsd_serve_queue_used",
		"Admission slots currently held (running plus waiting requests).", "",
		func() int64 { return int64(len(s.sem)) })
	s.lastActive.Store(time.Now().UnixNano())
	if cfg.IdleTrim > 0 {
		s.stopTrim = make(chan struct{})
		s.trimDone = make(chan struct{})
		go s.trimLoop()
	}
	return s, nil
}

// Registry returns the server's telemetry registry — the one behind
// GET /metrics — so embedders can add their own instruments to the same
// exposition.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// workspaceBytes sums the last observed per-clone workspace footprints.
func (s *Server) workspaceBytes() int64 {
	var total int64
	for _, wk := range s.workers {
		total += wk.footprint.Load()
	}
	return total
}

// Handler returns the HTTP handler serving the daemon's endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/detect", s.handleDetect)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/traces/", s.handleTrace)
	mux.Handle("/metrics", s.reg.Handler())
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Shutdown stops admitting requests (new /detect calls answer 503) and
// waits for in-flight detections to finish, or for ctx to expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already && s.stopTrim != nil {
		close(s.stopTrim)
		<-s.trimDone
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DetectionJSON is one hotspot clip in the /detect response, in layout
// nanometres relative to the request layout's bounds origin.
type DetectionJSON struct {
	CXnm  float64 `json:"cx_nm"`
	CYnm  float64 `json:"cy_nm"`
	Wnm   float64 `json:"w_nm"`
	Hnm   float64 `json:"h_nm"`
	Score float64 `json:"score"`
}

// DetectResponse is the /detect success payload. ScanID names this scan
// for a follow-up incremental request (POST /detect?since=<scan_id> with
// the edited layout). TilesScanned/TilesReused report the megatile fates
// — an incremental rescan of a lightly-edited layout reuses most tiles.
type DetectResponse struct {
	Detections   []DetectionJSON `json:"detections"`
	Count        int             `json:"count"`
	ElapsedMS    float64         `json:"elapsed_ms"`
	ScanID       int64           `json:"scan_id,omitempty"`
	TilesScanned int             `json:"tiles_scanned,omitempty"`
	TilesReused  int             `json:"tiles_reused,omitempty"`
	Incremental  bool            `json:"incremental,omitempty"`
	// Precision is the numeric path this scan ran under ("fp32" or
	// "int8"): the pool default, or the request's ?precision= override.
	Precision string `json:"precision,omitempty"`
	// TraceID names this request's span trace, retrievable while retained
	// at GET /traces/{trace_id} (empty when the flight recorder is off).
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorResponse is every non-2xx payload.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Status is the /statusz payload. Every counter is read from the same
// telemetry instruments that /metrics exposes.
type Status struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Pool           int     `json:"pool"`
	ScanWorkers    int     `json:"scan_workers_per_model"`
	QueueCapacity  int     `json:"queue_capacity"`
	QueueUsed      int     `json:"queue_used"`
	WorkspaceBytes int64   `json:"workspace_bytes"`
	Requests       int64   `json:"requests"`
	OK             int64   `json:"ok"`
	ClientErrors   int64   `json:"client_errors"`
	ServerErrors   int64   `json:"server_errors"`
	Shed           int64   `json:"shed"`
	Timeouts       int64   `json:"timeouts"`
	Detections     int64   `json:"detections"`
	LatencyAvgMS   float64 `json:"latency_avg_ms"`
	LatencyMaxMS   float64 `json:"latency_max_ms"`
	Draining       bool    `json:"draining"`
	// Precision is the pool-wide numeric path; Int8Armed reports whether
	// per-request ?precision=int8 overrides are available.
	Precision string `json:"precision"`
	Int8Armed bool   `json:"int8_armed"`
	// Cache* mirror the rhsd_scancache_* series when the megatile result
	// cache is enabled; CacheHitRate is hits / (hits + misses + shared).
	CacheEnabled   bool    `json:"cache_enabled"`
	CacheHits      int64   `json:"cache_hits,omitempty"`
	CacheMisses    int64   `json:"cache_misses,omitempty"`
	CacheShared    int64   `json:"cache_shared,omitempty"`
	CacheEvictions int64   `json:"cache_evictions,omitempty"`
	CacheBytes     int64   `json:"cache_bytes,omitempty"`
	CacheEntries   int64   `json:"cache_entries,omitempty"`
	CacheHitRate   float64 `json:"cache_hit_rate,omitempty"`
	// Build mirrors the rhsd_build_info gauge labels.
	Build BuildInfo `json:"build"`
	// TracesRetained/TraceCapacity describe the flight recorder; zero
	// capacity means tracing is disabled and GET /traces answers 404.
	TracesRetained int `json:"traces_retained"`
	TraceCapacity  int `json:"trace_capacity"`
	// ScanHistory lists the retained scans (?since= targets), newest
	// first, each carrying the trace id that joins it to GET /traces.
	ScanHistory []ScanHistoryEntry `json:"scan_history,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the connection failing mid-response is the client's problem
}

// fail answers with a JSON error and bumps the right response-class
// counter.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	if code >= 500 {
		s.met.respServer.Inc()
	} else if code >= 400 {
		s.met.respClient.Inc()
	}
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	m := s.met
	st := Status{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Pool:           len(s.workers),
		ScanWorkers:    s.perScan,
		QueueCapacity:  cap(s.sem),
		QueueUsed:      len(s.sem),
		WorkspaceBytes: s.workspaceBytes(),
		Requests:       m.requests.Value(),
		OK:             m.respOK.Value(),
		ClientErrors:   m.respClient.Value(),
		ServerErrors:   m.respServer.Value(),
		Shed:           m.shed.Value(),
		Timeouts:       m.timeouts.Value(),
		Detections:     m.detections.Value(),
		Precision:      s.defaultPrecision,
		Int8Armed:      s.int8Armed,
	}
	if n := m.latency.Count(); n > 0 {
		st.LatencyAvgMS = m.latency.Sum() / float64(n) * 1e3
	}
	st.LatencyMaxMS = m.latency.Max() * 1e3
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheEnabled = true
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheShared = cs.Shared
		st.CacheEvictions = cs.Evictions
		st.CacheBytes = cs.Bytes
		st.CacheEntries = cs.Entries
		if total := cs.Hits + cs.Misses + cs.Shared; total > 0 {
			st.CacheHitRate = float64(cs.Hits) / float64(total)
		}
	}
	st.Build = s.buildInfo()
	if s.rec != nil {
		st.TracesRetained = len(s.rec.Traces())
		st.TraceCapacity = s.rec.Cap()
	}
	st.ScanHistory = s.hist.list()
	s.mu.RLock()
	st.Draining = s.closed
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, st)
}

func scanWorkersPerModel(pool int) int {
	per := parallel.Workers() / pool
	if per < 1 {
		per = 1
	}
	return per
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST a layout to /detect")
		return
	}
	// Admission: refuse while draining, then claim a queue slot without
	// blocking — a full queue sheds immediately rather than buffering
	// bodies in memory until the process OOMs.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.inflight.Add(1)
	s.mu.RUnlock()
	defer s.inflight.Done()

	id := s.reqID.Add(1)
	reqIDStr := strconv.FormatInt(id, 10)
	w.Header().Set("X-Request-Id", reqIDStr)
	// tr is nil when the flight recorder is off; every span operation
	// below is nil-safe, so the untraced path stays branch-only. An
	// inbound W3C traceparent header donates the trace id so a
	// coordinator fanning a chip out over workers sees one trace.
	tr := s.rec.StartTrace("detect", reqIDStr, r.Header.Get("traceparent"))
	if tr != nil {
		w.Header().Set("Traceparent", tr.TraceParent())
		w.Header().Set("X-Trace-Id", tr.TraceID())
	}
	// Early exits (shed, 4xx, wait timeout) complete the trace here; a
	// scan completes it in finishTrace, and Complete is idempotent.
	defer tr.Complete()
	s.log.Debug("detect request", "request_id", id, "remote", r.RemoteAddr)
	s.met.requests.Inc()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	s.lastActive.Store(time.Now().UnixNano())
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.met.shed.Inc()
		s.fail(w, http.StatusTooManyRequests, "queue full (%d running or waiting)", cap(s.sem))
		return
	}

	var since int64
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v <= 0 {
			s.fail(w, http.StatusBadRequest, "invalid since=%q: want a positive scan_id from an earlier response", q)
			return
		}
		since = v
	}

	// ?precision= overrides the pool default for this request only: it
	// goes into the scan request, never onto the pooled model.
	precision := s.defaultPrecision
	if q := r.URL.Query().Get("precision"); q != "" {
		switch q {
		case hsd.PrecisionFP32, hsd.PrecisionInt8:
			precision = q
		default:
			s.fail(w, http.StatusBadRequest, "invalid precision=%q: want %q or %q",
				q, hsd.PrecisionFP32, hsd.PrecisionInt8)
			return
		}
		if precision == hsd.PrecisionInt8 && !s.int8Armed {
			s.fail(w, http.StatusBadRequest,
				"precision=int8 unavailable: the server started without int8 calibration")
			return
		}
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	ps := tr.StartSpan(tr.Root(), "parse")
	l, err := layout.ParseChecked(body, s.cfg.Limits)
	tr.EndSpan(ps)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		s.fail(w, http.StatusBadRequest, "parsing layout: %v", err)
		return
	}

	ctx := telemetry.ContextWithTrace(r.Context(), tr)
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	waitStart := time.Now()
	qs := tr.StartSpan(tr.Root(), "queue_wait")
	var wk *worker
	select {
	case wk = <-s.pool:
		s.met.queueWait.ObserveSince(waitStart)
		tr.EndSpan(qs)
	case <-ctx.Done():
		s.met.timeouts.Inc()
		s.fail(w, http.StatusServiceUnavailable, "no detection worker within the request deadline")
		return
	}

	start := time.Now()
	res, err := s.scan(ctx, wk.m, l, since, precision)
	wk.footprint.Store(int64(wk.m.TotalWorkspaceFootprint()) * 4)
	s.pool <- wk
	s.finishTrace(tr, res, err, time.Since(start))
	var pe *guard.PanicError
	switch {
	case errors.As(err, &pe):
		s.log.Error("detection panic recovered",
			"request_id", id,
			"panic", fmt.Sprint(pe.Value),
			"stack", string(pe.Stack))
		s.fail(w, http.StatusInternalServerError, "detection failed: %v", err)
		return
	case errors.Is(err, hsd.ErrBadInput):
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	case err != nil: // the scan stopped: the deadline passed or the client left
		s.met.timeouts.Inc()
		s.fail(w, http.StatusGatewayTimeout, "detection exceeded the request deadline")
		return
	}
	elapsed := time.Since(start)
	s.log.Debug("detect done", "request_id", id,
		"detections", len(res.dets), "incremental", res.incremental,
		"elapsed_ms", float64(elapsed.Nanoseconds())/1e6)
	s.met.respOK.Inc()
	s.met.detections.Add(int64(len(res.dets)))
	s.met.latency.Observe(elapsed.Seconds())
	out := DetectResponse{
		Detections:   make([]DetectionJSON, len(res.dets)),
		Count:        len(res.dets),
		ElapsedMS:    float64(elapsed.Nanoseconds()) / 1e6,
		ScanID:       res.scanID,
		TilesScanned: res.tilesScanned,
		TilesReused:  res.tilesReused,
		Incremental:  res.incremental,
		Precision:    precision,
		TraceID:      tr.TraceID(),
	}
	for i, d := range res.dets {
		out.Detections[i] = DetectionJSON{
			CXnm: d.Clip.CX(), CYnm: d.Clip.CY(),
			Wnm: d.Clip.W(), Hnm: d.Clip.H(),
			Score: d.Score,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// scanOutcome is one request's detection result plus the scan metadata
// echoed in the response.
type scanOutcome struct {
	dets                      []hsd.Detection
	scanID                    int64
	tilesScanned, tilesReused int
	incremental               bool
}

// scan runs the megatile scan over the request layout's bounds through
// m.Scan, at the given precision and under ctx, which carries the
// request's deadline and trace. The test hook, the ?since= lookup and
// the auto factor run inside a guard boundary of their own; Scan has
// one too, so any panic becomes a 500.
//
// The scan result is retained in the history ring and its id returned,
// so a follow-up request can POST an edited layout with ?since=<id>: the
// stored scan becomes the request's Prev, with layout.Diff of the stored
// layout against the new one as its dirty rects, and only megatiles
// whose halo-inclusive raster window a dirty rect touches are re-scanned.
// A since id that has aged out, or a stored scan whose window, factor or
// weights version (precision included) does not match, silently degrades
// to a cold scan — incremental serving is an optimization, never a
// correctness dependency (the hsd differential suite pins bit-identity).
func (s *Server) scan(ctx context.Context, m *hsd.Model, l *layout.Layout, since int64, precision string) (scanOutcome, error) {
	req := hsd.ScanRequest{Layout: l, Window: l.Bounds, Factor: s.cfg.MegatileFactor, Precision: precision}
	if err := guard.Run(func() {
		if s.testHook != nil {
			s.testHook(ctx)
		}
		if prev, ok := s.hist.get(since); ok {
			req.Prev, req.Dirty = prev.res, layout.Diff(prev.l, l)
		}
		if req.Factor == 0 {
			req.Factor = m.AutoMegatileFactor(l.Bounds, int64(s.cfg.MegatileMemMiB)<<20)
		}
	}); err != nil {
		return scanOutcome{}, err
	}
	res, err := m.Scan(ctx, req)
	if err != nil {
		return scanOutcome{}, err
	}
	return scanOutcome{
		dets:         res.Detections,
		scanID:       s.hist.add(l, res, telemetry.TraceFromContext(ctx).TraceID()),
		tilesScanned: res.TilesScanned,
		tilesReused:  res.TilesReused,
		// A Prev that did not match is a full scan: report the scan as
		// incremental only if a tile was actually reused.
		incremental: req.Prev != nil && (res.TilesReused > 0 || res.TilesScanned == 0),
	}, nil
}

// trimLoop watches for idle periods and trims per-clone workspaces back
// to the configured budget so a daemon that served one giant scan does
// not pin megatile-sized buffers forever.
func (s *Server) trimLoop() {
	defer close(s.trimDone)
	tick := time.NewTicker(s.cfg.IdleTrim)
	defer tick.Stop()
	for {
		select {
		case <-s.stopTrim:
			return
		case <-tick.C:
			idle := time.Now().UnixNano() - s.lastActive.Load()
			if idle < s.cfg.IdleTrim.Nanoseconds() {
				continue
			}
			s.trimIdleWorkers()
		}
	}
}

// trimIdleWorkers trims every worker currently parked in the pool. Busy
// workers are skipped — they are not idle, and they update their own
// footprint when they finish. Workers are removed from the pool while
// being trimmed so no request can race the workspace.
func (s *Server) trimIdleWorkers() {
	var parked []*worker
drain:
	for {
		select {
		case wk := <-s.pool:
			parked = append(parked, wk)
		default:
			break drain
		}
	}
	for _, wk := range parked {
		wk.m.TrimWorkspace(s.cfg.TrimFloats)
		wk.footprint.Store(int64(wk.m.TotalWorkspaceFootprint()) * 4)
		s.pool <- wk
	}
}
