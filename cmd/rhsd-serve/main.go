// Command rhsd-serve is the R-HSD detection daemon: it loads a trained
// checkpoint once, builds a pool of model clones, and serves hotspot
// detection over HTTP.
//
//	rhsd-serve -ckpt rhsd.ckpt -addr :8080
//	curl --data-binary @chip.layout localhost:8080/detect
//
// Endpoints:
//
//	POST /detect   layout text (BOUNDS/RECT format) in, JSON detections out
//	GET  /healthz  liveness; 503 while draining
//	GET  /statusz  pool, queue, workspace, build info and counters as JSON
//	GET  /metrics  Prometheus text exposition (stage timings, pool, serve)
//	GET  /traces   flight recorder: recent request span traces as JSON
//	GET  /traces/{id}            one trace's span tree (?format=txt for text)
//	GET  /debug/pprof/*  profiling handlers, only with -pprof
//
// Every /detect request records a span trace — queue wait, parse, scan,
// one span per megatile with its cache outcome and per-stage timings —
// into a fixed-size flight recorder (-flight-recorder traces retained).
// The response carries the trace id (trace_id field, X-Trace-Id and W3C
// traceparent headers; an inbound traceparent is adopted, so a
// coordinator fanning one chip across workers sees a single trace).
// Detections slower than -slow-scan additionally log a structured dump
// naming the worst megatile and its dominant stage.
//
// The pool holds -pool model clones (default: one per compute worker),
// each scanning with its share of the worker budget, so a saturated
// daemon uses the same compute as one CLI scan. Requests beyond
// -pool + -queue are shed with 429; each request is bounded by -timeout.
//
// All clones share one content-addressed megatile result cache
// (-cache-mem, 0 disables): a megatile whose rasterized content was
// scanned before — in any request, at any position — is answered without
// a forward pass. Each megatile response carries a scan_id; re-posting
// an edited layout to /detect?since=<scan_id> diffs it against the
// stored one and re-rasterizes only megatiles a dirty rect touches.
// The whole detection stack runs behind a panic-recovery boundary: a
// corrupt request or an internal bug answers a JSON error and the daemon
// keeps serving. SIGINT/SIGTERM drain in-flight requests before exit.
//
// -selftest starts the daemon on a loopback port, posts a generated
// layout to it, checks /healthz and /statusz, and exits 0 on success —
// used by `make serve-smoke` as an end-to-end build check.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"time"

	"rhsd/internal/eval"
	"rhsd/internal/hsd"
	"rhsd/internal/layout"
	"rhsd/internal/parallel"
	"rhsd/internal/serve"
	"rhsd/internal/telemetry"
)

func main() {
	ckpt := flag.String("ckpt", "rhsd.ckpt", "model checkpoint from rhsd-train")
	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", 0, "model clones serving concurrently (0 = one per compute worker)")
	queue := flag.Int("queue", -1, "admitted requests that may wait beyond the pool; past pool+queue sheds 429 (negative = 2×pool, 0 = no waiting room)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request deadline covering queue wait and detection (0 = none)")
	maxBody := flag.Int64("max-body", 16<<20, "largest accepted /detect body in bytes")
	thresh := flag.Float64("threshold", -1, "override score threshold, 0 allowed (negative = config default)")
	megatile := flag.Int("megatile", 0, "megatile factor: 0 = auto from -megatile-mem, N = N×N regions per pass")
	megatileMem := flag.Int("megatile-mem", 512, "per-clone inference workspace budget in MiB for -megatile 0 (auto)")
	cacheMem := flag.Int("cache-mem", 64, "content-addressed megatile result cache budget in MiB, shared by the pool (0 = disabled)")
	workers := flag.Int("workers", 0, "compute worker pool size (0 = RHSD_WORKERS or NumCPU)")
	precision := flag.String("precision", "fp32", "pool-wide trunk numeric path: fp32 or int8; per-request override via /detect?precision=")
	flightRec := flag.Int("flight-recorder", 0, "completed request traces retained for GET /traces (0 = 32, negative = tracing off)")
	slowScan := flag.Duration("slow-scan", 0, "log a structured trace dump for detections at least this slow (0 = off)")
	idleTrim := flag.Duration("idle-trim", time.Minute, "trim per-clone workspaces after this much idle time (0 = never)")
	initRandom := flag.Bool("init-random", false, "serve freshly initialized weights instead of loading -ckpt (smoke tests)")
	selftest := flag.Bool("selftest", false, "start on a loopback port, run one end-to-end request against it, and exit")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("-log-level %q: %w", *logLevel, err))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// 0 means "unset" for -workers and -megatile, so an explicit bad value
	// must be caught by inspecting which flags the user actually passed.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workers":
			if *workers < 1 {
				fatal(fmt.Errorf("-workers must be >= 1 (got %d)", *workers))
			}
		case "megatile":
			if *megatile < 0 {
				fatal(fmt.Errorf("-megatile must be >= 0 (got %d)", *megatile))
			}
		case "megatile-mem":
			if *megatileMem < 1 {
				fatal(fmt.Errorf("-megatile-mem must be >= 1 MiB (got %d)", *megatileMem))
			}
		case "cache-mem":
			if *cacheMem < 0 {
				fatal(fmt.Errorf("-cache-mem must be >= 0 MiB (got %d)", *cacheMem))
			}
		}
	})
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	m, err := hsd.NewModel(eval.FastProfile().HSD)
	if err != nil {
		fatal(err)
	}
	if *initRandom {
		fmt.Fprintln(os.Stderr, "rhsd-serve: serving randomly initialized weights (-init-random)")
	} else if err := m.LoadChecked(*ckpt); err != nil {
		fatal(err)
	}

	cfg := serve.Config{
		Pool:           *pool,
		QueueDepth:     *queue,
		Timeout:        *timeout,
		MaxBodyBytes:   *maxBody,
		MegatileFactor: *megatile,
		MegatileMemMiB: *megatileMem,
		CacheMemMiB:    *cacheMem,
		ScoreThreshold: *thresh,
		IdleTrim:       *idleTrim,
		FlightRecorder: *flightRec,
		SlowScan:       *slowScan,
		EnablePprof:    *pprofFlag,
		Logger:         logger,
		Precision:      *precision,
		// Always arm the int8 path (a few synthetic oracle-labeled
		// forward passes at startup) so /detect?precision=int8 works
		// whatever the pool default is.
		Calibration: eval.SyntheticCalibration(m.Config, 4),
	}
	if *timeout == 0 {
		cfg.Timeout = -1 // Config uses 0 as "default"; the flag's 0 means none
	}
	if *idleTrim == 0 {
		cfg.IdleTrim = -1
	}
	s, err := serve.New(m, cfg)
	if err != nil {
		fatal(err)
	}

	listenAddr := *addr
	if *selftest {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "rhsd-serve: listening on %s\n", ln.Addr())

	if *selftest {
		if err := runSelftest(m.Config, cfg, "http://"+ln.Addr().String()); err != nil {
			fmt.Fprintln(os.Stderr, "rhsd-serve: selftest FAILED:", err)
			os.Exit(1)
		}
		shutdown(srv, s)
		fmt.Println("rhsd-serve: selftest ok")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "rhsd-serve: signal received, draining")
		shutdown(srv, s)
	case err := <-serveErr:
		fatal(err)
	}
}

// shutdown stops accepting connections, then drains in-flight detections.
func shutdown(srv *http.Server, s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "rhsd-serve: http shutdown:", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "rhsd-serve: drain:", err)
	}
}

// runSelftest exercises the live daemon end to end: health, a cold
// detection over a generated layout, a warm repeat that must be
// bit-identical and (when the cache is on) served from it, an
// incremental ?since= rescan of the unchanged layout that must reuse
// every megatile, a malformed request, and status counters plus the
// Prometheus exposition reflecting all of it.
func runSelftest(c hsd.Config, cfg serve.Config, base string) error {
	client := &http.Client{Timeout: 2 * time.Minute}
	cacheOn := cfg.CacheMemMiB > 0

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}

	var layoutText bytes.Buffer
	if err := selftestLayout(c).Save(&layoutText); err != nil {
		return fmt.Errorf("building layout: %w", err)
	}
	detect := func(label, query string) (serve.DetectResponse, error) {
		var dr serve.DetectResponse
		resp, err := client.Post(base+"/detect"+query, "text/plain", bytes.NewReader(layoutText.Bytes()))
		if err != nil {
			return dr, fmt.Errorf("%s: %w", label, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return dr, fmt.Errorf("%s: status %d: %s", label, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &dr); err != nil {
			return dr, fmt.Errorf("%s: decoding %q: %w", label, body, err)
		}
		if dr.Count != len(dr.Detections) {
			return dr, fmt.Errorf("%s: count %d but %d detections", label, dr.Count, len(dr.Detections))
		}
		return dr, nil
	}

	cold, err := detect("cold detect", "")
	if err != nil {
		return err
	}
	if cold.ScanID <= 0 {
		return fmt.Errorf("cold detect: scan_id %d, want > 0", cold.ScanID)
	}
	if cold.TilesScanned < 1 || cold.TilesReused != 0 || cold.Incremental {
		return fmt.Errorf("cold detect: tiles scanned=%d reused=%d incremental=%v",
			cold.TilesScanned, cold.TilesReused, cold.Incremental)
	}

	// The warm repeat posts the identical layout: the detections must be
	// bit-identical, and with the cache on every megatile raster hashes
	// to an entry the cold scan filled.
	warm, err := detect("warm detect", "")
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(warm.Detections, cold.Detections) {
		return fmt.Errorf("warm detect: detections differ from the cold scan")
	}

	// Re-posting the unchanged layout with ?since= takes the incremental
	// path: an empty diff reuses every retained megatile and rasterizes
	// nothing, and the detections still match.
	incr, err := detect("incremental detect", fmt.Sprintf("?since=%d", warm.ScanID))
	if err != nil {
		return err
	}
	if !incr.Incremental || incr.TilesScanned != 0 || incr.TilesReused < 1 {
		return fmt.Errorf("incremental detect: incremental=%v scanned=%d reused=%d, want an all-reused rescan",
			incr.Incremental, incr.TilesScanned, incr.TilesReused)
	}
	if !reflect.DeepEqual(incr.Detections, cold.Detections) {
		return fmt.Errorf("incremental detect: detections differ from the cold scan")
	}

	// The int8 override must run (the server always arms the quantized
	// trunk at startup) and echo the precision it used.
	i8, err := detect("int8 detect", "?precision=int8")
	if err != nil {
		return err
	}
	if i8.Precision != hsd.PrecisionInt8 {
		return fmt.Errorf("int8 detect: response precision %q, want %q", i8.Precision, hsd.PrecisionInt8)
	}
	if cold.Precision != hsd.PrecisionFP32 {
		return fmt.Errorf("cold detect: response precision %q, want %q", cold.Precision, hsd.PrecisionFP32)
	}

	// A malformed body must come back as a 4xx JSON error, not kill the
	// daemon — the serving boundary's core promise.
	resp, err = client.Post(base+"/detect", "text/plain", bytes.NewReader([]byte("RECT with no bounds")))
	if err != nil {
		return fmt.Errorf("malformed detect: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("malformed detect: status %d, want 400: %s", resp.StatusCode, body)
	}

	const good = 4
	resp, err = client.Get(base + "/statusz")
	if err != nil {
		return fmt.Errorf("statusz: %w", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("statusz: decoding %q: %w", body, err)
	}
	if st.Requests != good+1 || st.OK != good || st.ClientErrors != 1 {
		return fmt.Errorf("statusz: counters %+v after %d good and one bad request", st, good)
	}
	if !st.Int8Armed || st.Precision != hsd.PrecisionFP32 {
		return fmt.Errorf("statusz: precision %q int8_armed %v, want fp32 and armed", st.Precision, st.Int8Armed)
	}
	if cacheOn {
		if !st.CacheEnabled {
			return fmt.Errorf("statusz: cache_enabled false with -cache-mem %d", cfg.CacheMemMiB)
		}
		if st.CacheHits < 1 || st.CacheMisses < 1 || st.CacheHitRate <= 0 {
			return fmt.Errorf("statusz: cache hits=%d misses=%d hit_rate=%g after a warm repeat",
				st.CacheHits, st.CacheMisses, st.CacheHitRate)
		}
	}

	// The Prometheus exposition must carry every layer of the stack —
	// serve requests, pool utilization, per-stage model timings and the
	// result cache — and agree with the /statusz counters read above.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		return fmt.Errorf("metrics: content type %q", ct)
	}
	text := string(body)
	wants := []string{
		fmt.Sprintf("rhsd_serve_requests_total %d", good+1),
		fmt.Sprintf(`rhsd_serve_responses_total{class="2xx"} %d`, good),
		`rhsd_serve_responses_total{class="4xx"} 1`,
		"# TYPE rhsd_detect_stage_seconds histogram",
		`rhsd_detect_stage_seconds_count{stage="backbone"}`,
		"rhsd_pool_workers",
		"rhsd_detect_passes_total",
		"rhsd_build_info{",
		`rhsd_scan_tiles_total{kind="megatile_reused"}`,
	}
	if cacheOn {
		wants = append(wants,
			`rhsd_scancache_lookups_total{outcome="hit"}`,
			`rhsd_scancache_lookups_total{outcome="miss"}`,
			"rhsd_scancache_bytes",
		)
	}
	for _, want := range wants {
		if !strings.Contains(text, want) {
			return fmt.Errorf("metrics: exposition is missing %q", want)
		}
	}

	if err := selftestTraces(client, base, cold, st, layoutText.Bytes()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rhsd-serve: selftest scanned layout, %d detections, pool %d, cache hits %d, trace %s\n",
		cold.Count, st.Pool, st.CacheHits, cold.TraceID)
	return nil
}

// selftestTraces checks the flight recorder end to end: the cold scan's
// trace is retrievable by its id, its span tree has the right shape
// (queue wait + scan + megatile spans with cache outcomes + stage
// children nested within their parents), the text rendering works, the
// scan history on /statusz joins scans to traces, and an inbound W3C
// traceparent header is adopted as the trace id.
func selftestTraces(client *http.Client, base string, cold serve.DetectResponse, st serve.Status, layoutText []byte) error {
	if len(cold.TraceID) != 32 {
		return fmt.Errorf("traces: cold scan trace_id %q, want 32 hex digits", cold.TraceID)
	}
	if st.Build.GoVersion == "" || st.Build.GemmKernel == "" || st.Build.QGemmKernel == "" {
		return fmt.Errorf("traces: statusz build info incomplete: %+v", st.Build)
	}
	if st.TraceCapacity < 1 || st.TracesRetained < 1 {
		return fmt.Errorf("traces: statusz recorder retained=%d capacity=%d, want both >= 1",
			st.TracesRetained, st.TraceCapacity)
	}
	found := false
	for _, e := range st.ScanHistory {
		if e.ScanID == cold.ScanID && e.TraceID == cold.TraceID {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("traces: statusz scan history lacks scan %d with trace %s: %+v",
			cold.ScanID, cold.TraceID, st.ScanHistory)
	}

	// The listing must contain the cold scan's trace.
	resp, err := client.Get(base + "/traces")
	if err != nil {
		return fmt.Errorf("traces list: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("traces list: status %d: %s", resp.StatusCode, body)
	}
	var list struct {
		Capacity int `json:"capacity"`
		Traces   []struct {
			TraceID string `json:"trace_id"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return fmt.Errorf("traces list: decoding %q: %w", body, err)
	}
	listed := false
	for _, t := range list.Traces {
		if t.TraceID == cold.TraceID {
			listed = true
		}
	}
	if !listed {
		return fmt.Errorf("traces list: trace %s not retained (capacity %d, %d listed)",
			cold.TraceID, list.Capacity, len(list.Traces))
	}

	// The full tree: root "detect" → queue_wait + parse + scan →
	// megatile spans carrying a cache outcome → stage children whose
	// spans nest within the megatile's interval.
	resp, err = client.Get(base + "/traces/" + cold.TraceID)
	if err != nil {
		return fmt.Errorf("trace fetch: %w", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace fetch: status %d: %s", resp.StatusCode, body)
	}
	var td telemetry.TraceData
	if err := json.Unmarshal(body, &td); err != nil {
		return fmt.Errorf("trace fetch: decoding %q: %w", body, err)
	}
	if !td.Complete || td.Root.Name != "detect" {
		return fmt.Errorf("trace fetch: complete=%v root=%q, want a complete detect trace", td.Complete, td.Root.Name)
	}
	children := map[string]int{}
	for _, c := range td.Root.Children {
		children[c.Name]++
	}
	for _, want := range []string{"queue_wait", "parse", "scan"} {
		if children[want] == 0 {
			return fmt.Errorf("trace fetch: root has no %q span (children %v)", want, children)
		}
	}
	workSpans, stageSpans := 0, 0
	for _, c := range td.Root.Children {
		if c.Name != "scan" {
			continue
		}
		for _, mt := range c.Children {
			if mt.Name != "megatile" {
				continue
			}
			workSpans++
			cacheAttr := false
			for _, a := range mt.Attrs {
				if a.Key == "cache" && a.Str != "" {
					cacheAttr = true
				}
			}
			if !cacheAttr {
				return fmt.Errorf("trace fetch: megatile span lacks a cache outcome attr: %+v", mt.Attrs)
			}
			for _, stg := range mt.Children {
				stageSpans++
				if stg.StartNs < mt.StartNs || stg.StartNs+stg.DurationNs > mt.StartNs+mt.DurationNs {
					return fmt.Errorf("trace fetch: stage %q [%d,+%d] outside its megatile span [%d,+%d]",
						stg.Name, stg.StartNs, stg.DurationNs, mt.StartNs, mt.DurationNs)
				}
			}
		}
	}
	if workSpans < 1 || stageSpans < 1 {
		return fmt.Errorf("trace fetch: %d megatile spans with %d stage children, want >= 1 of each",
			workSpans, stageSpans)
	}

	// Text rendering, addressed by request id this time (both keys work).
	resp, err = client.Get(base + "/traces/" + td.RequestID + "?format=txt")
	if err != nil {
		return fmt.Errorf("trace txt: %w", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace txt: status %d: %s", resp.StatusCode, body)
	}
	txt := string(body)
	if !strings.Contains(txt, "trace "+cold.TraceID) || !strings.Contains(txt, "megatile") {
		return fmt.Errorf("trace txt: rendering lacks the header or megatile spans:\n%s", txt)
	}

	// An inbound W3C traceparent must be adopted: the response echoes the
	// caller's trace id and the recorder retains the trace under it.
	const inboundID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost, base+"/detect", bytes.NewReader(layoutText))
	if err != nil {
		return fmt.Errorf("traceparent detect: %w", err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("traceparent", "00-"+inboundID+"-00f067aa0ba902b7-01")
	resp, err = client.Do(req)
	if err != nil {
		return fmt.Errorf("traceparent detect: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("traceparent detect: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != inboundID {
		return fmt.Errorf("traceparent detect: X-Trace-Id %q, want the inbound id %s", got, inboundID)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, inboundID) {
		return fmt.Errorf("traceparent detect: response traceparent %q lacks the inbound id", tp)
	}
	resp, err = client.Get(base + "/traces/" + inboundID)
	if err != nil {
		return fmt.Errorf("traceparent fetch: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("traceparent fetch: status %d, want the adopted trace retained", resp.StatusCode)
	}
	return nil
}

// selftestLayout covers one megatile and a ragged margin with dense wire
// stripes, enough geometry to drive a real scan.
func selftestLayout(c hsd.Config) *layout.Layout {
	regionNM := c.RegionNM()
	p := int(c.PitchNM)
	l := layout.New(layout.R(0, 0, regionNM+regionNM/2, regionNM+regionNM/4))
	for y := 0; y < l.Bounds.Y1; y += 6 * p {
		l.Add(layout.R(0, y, l.Bounds.X1, y+p))
	}
	l.Add(layout.R(regionNM/2-4*p, regionNM/2-4*p, regionNM/2+5*p, regionNM/2+5*p))
	return l
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rhsd-serve:", err)
	os.Exit(1)
}
