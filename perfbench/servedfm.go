package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"rhsd/internal/eval"
	"rhsd/internal/hsd"
	"rhsd/internal/layout"
	"rhsd/internal/serve"
	"rhsd/internal/tensor"
)

// serveCacheMiB is the server's result cache budget (the rhsd-serve
// default), large enough that a run never evicts.
const serveCacheMiB = 64

// fastConfig is the serve_dfm model: FastProfile keeps compute a
// minority of request time (a cold PaperConfig request takes seconds),
// reporting every clip so the checks compare non-empty outputs.
func fastConfig() hsd.Config {
	c := eval.FastProfile().HSD
	c.ScoreThreshold = 0
	return c
}

// serveClient is one DFM loop: its novel layouts, its one-rect edits and
// the class of each request it sends.
type serveClient struct {
	bases  [][]byte
	edits  [][]byte // "RECT x0 y0 x1 y1\n" lines
	script string
}

func loadClient(dir string) (*serveClient, error) {
	c := &serveClient{}
	script, err := os.ReadFile(filepath.Join(dir, "script.txt"))
	if err != nil {
		return nil, err
	}
	c.script = strings.TrimSpace(string(script))
	for i := 0; i < strings.Count(c.script, "N"); i++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("base-%03d.layout", i)))
		if err != nil {
			return nil, err
		}
		c.bases = append(c.bases, b)
	}
	f, err := os.Open(filepath.Join(dir, "edits.txt"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		c.edits = append(c.edits, []byte("RECT "+sc.Text()+"\n"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(c.edits) != strings.Count(c.script, "E") {
		return nil, fmt.Errorf("%s: %d edits for %d edit requests", dir, len(c.edits), strings.Count(c.script, "E"))
	}
	return c, nil
}

// sample is one request and what came back.
type sample struct {
	class   byte // N novel, E edit, R repeat
	version int  // index into the phase's versions
	latency time.Duration
	status  int
	digest  string
	resp    serve.DetectResponse
}

// phase is one client's requests in one closed-loop phase. versions are
// the distinct layout texts it posted, in order.
type phase struct {
	samples  []sample
	versions [][]byte
}

// run sends the client's script in a closed loop until the deadline or,
// when steps > 0, for exactly steps requests. With sp set, each request
// is traced and its body replayed through the layers the server runs on
// it.
func (c *serveClient) run(hc *http.Client, url string, until time.Time, steps int, sp *serveReplay) (*phase, error) {
	ph := &phase{}
	var body []byte
	var lastID int64
	nb, ne := 0, 0
	for step := 0; step < len(c.script); step++ {
		if (steps > 0 && step >= steps) || (steps == 0 && !time.Now().Before(until)) {
			break
		}
		s := sample{class: c.script[step]}
		var prev []byte
		q := ""
		switch s.class {
		case 'N':
			body = c.bases[nb]
			nb++
			ph.versions = append(ph.versions, body)
		case 'E':
			prev = body
			body = append(append([]byte(nil), body...), c.edits[ne]...)
			ne++
			ph.versions = append(ph.versions, body)
			q = "?since=" + strconv.FormatInt(lastID, 10)
		}
		s.version = len(ph.versions) - 1
		op := len(ph.samples)
		var root, rq int
		if sp != nil {
			root = sp.rec.start("op", op, -1)
			rq = sp.rec.start("request", op, root)
		}
		t0 := time.Now()
		status, data, err := post(hc, url+"/detect"+q, body)
		s.latency = time.Since(t0)
		if sp != nil {
			sp.rec.end(rq)
		}
		if err != nil {
			return nil, err
		}
		s.status = status
		if status == http.StatusOK {
			if err := json.Unmarshal(data, &s.resp); err != nil {
				return nil, fmt.Errorf("decoding a /detect response: %w", err)
			}
			s.digest = responseDigest(s.resp.Detections)
			lastID = s.resp.ScanID
		}
		if sp != nil {
			if err := sp.replay(op, root, body, prev); err != nil {
				return nil, err
			}
			sp.rec.end(root)
		}
		ph.samples = append(ph.samples, s)
	}
	return ph, nil
}

func post(hc *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// responseDigest hashes detections as the response carries them.
func responseDigest(dets []serve.DetectionJSON) string {
	var d digest
	d.u64(uint64(len(dets)))
	for _, x := range dets {
		d.f64(x.CXnm, x.CYnm, x.Wnm, x.Hnm, x.Score)
	}
	return d.sum()
}

// referenceDigest hashes in-process detections the way the server
// renders them, so equal digests mean bit-identical responses.
func referenceDigest(dets []hsd.Detection) string {
	var d digest
	d.u64(uint64(len(dets)))
	for _, x := range dets {
		d.f64(x.Clip.CX(), x.Clip.CY(), x.Clip.W(), x.Clip.H(), x.Score)
	}
	return d.sum()
}

// liveServer is a serve.Server listening on a loopback port.
type liveServer struct {
	s    *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(cfg hsd.Config) (*liveServer, error) {
	m, err := hsd.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	s, err := serve.New(m, serve.Config{
		Pool:           serveClients,
		QueueDepth:     -1,
		MegatileFactor: 1,
		CacheMemMiB:    serveCacheMiB,
		ScoreThreshold: 0,
		IdleTrim:       -1,
		// Off: the flight recorder would switch tensor's stage profiling
		// on for the whole process, and untraced runs keep it off.
		FlightRecorder: -1,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{s: s, hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop drains the server and waits until it has stopped serving.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := ls.s.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// runServe drives two closed-loop DFM clients against a served model
// and checks every response against an in-process reference scan of the
// same layout text.
func runServe(rc *runCtx) error {
	res := rc.res
	cfg := fastConfig()
	warmup, err := os.ReadFile(filepath.Join(rc.inputs, "serve", "warmup.layout"))
	if err != nil {
		return err
	}
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		if clients[i], err = loadClient(filepath.Join(rc.inputs, "serve", fmt.Sprintf("client-%d", i))); err != nil {
			return err
		}
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}
	defer hc.CloseIdleConnections()

	var live *liveServer
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		ls, err := startServer(cfg)
		if err != nil {
			return 0, err
		}
		status, _, err := post(hc, ls.url+"/detect", warmup)
		d := time.Since(t0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up request answered %d", status)
		}
		if err != nil {
			_ = ls.stop() // the warm-up failure is the error to report
			return 0, err
		}
		live = ls
		return d, nil
	}
	if rc.trace {
		return traceServe(rc, hc, clients, setup, func() *liveServer { return live })
	}

	setupS, err := setupMedian(func(i int) (time.Duration, error) {
		if live != nil {
			if err := live.stop(); err != nil {
				return 0, err
			}
			hc.CloseIdleConnections()
		}
		return setup()
	})
	if err != nil {
		return err
	}
	res.set("setup_s", setupS)

	rss := startRSS()
	phases, elapsed, err := runClients(hc, live.url, clients, time.Now().Add(rc.seconds), nil, nil)
	if err != nil {
		return err
	}
	res.set("peak_rss_mib", rss.stopMiB())
	if err := live.stop(); err != nil {
		return err
	}

	refs, digest, err := serveReferences(res, cfg, phases)
	if err != nil {
		return err
	}
	var all []float64
	for c, ph := range phases {
		for i, s := range ph.samples {
			res.check(s.status == http.StatusOK && s.digest == refs[c][s.version],
				"client %d request %d (%c): status %d, response differs from the reference: %v",
				c, i, s.class, s.status, s.digest != refs[c][s.version])
			all = append(all, ms(s.latency))
		}
	}
	side := float64(serveSide*cfg.RegionNM()) / 1e3 // µm
	res.set("um2_per_s", side*side*float64(len(all))/elapsed.Seconds())
	latencyMetrics(res, all)
	warm, edit, cold := classLatencies(phases)
	res.report["request_classes"] = map[string]any{
		"novel": len(cold), "edit": len(edit), "repeat": len(warm),
		"warm_ms_p50": quantile(warm, 0.5), "warm_ms_p90": quantile(warm, 0.9),
		"edit_ms_p50": quantile(edit, 0.5), "cold_ms_p50": quantile(cold, 0.5),
	}
	res.report["digest"] = digest
	return nil
}

// classLatencies splits request latencies in ms by class: repeats
// (warm, all cache hits), edits and novel layouts (cold).
func classLatencies(phases []*phase) (warm, edit, cold []float64) {
	for _, ph := range phases {
		for _, s := range ph.samples {
			switch s.class {
			case 'N':
				cold = append(cold, ms(s.latency))
			case 'E':
				edit = append(edit, ms(s.latency))
			default:
				warm = append(warm, ms(s.latency))
			}
		}
	}
	return warm, edit, cold
}

// runClients runs every client concurrently until the deadline, or for
// steps[c] requests each when steps is set, and returns each client's
// phase and the wall time until the last response.
func runClients(hc *http.Client, url string, clients []*serveClient, until time.Time, steps []int, replays []*serveReplay) ([]*phase, time.Duration, error) {
	phases := make([]*phase, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		n := 0
		if steps != nil {
			n = steps[i]
		}
		var sp *serveReplay
		if replays != nil {
			sp = replays[i]
		}
		wg.Add(1)
		go func(i int, c *serveClient) {
			defer wg.Done()
			phases[i], errs[i] = c.run(hc, url, until, n, sp)
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, ph := range phases {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		if steps == nil && len(ph.samples) == len(clients[i].script) {
			return nil, 0, fmt.Errorf("client %d ran out of script before the deadline", i)
		}
	}
	return phases, elapsed, nil
}

// serveReferences scans every posted layout version in process and
// returns each version's digest per client, plus the run's output
// digest over each client's first versions (the same for every run
// length). References run on one model per client with a private result
// cache, so each distinct megatile raster is computed once and an edit
// costs one megatile; the first edited version of each client is also
// scanned cold, without any cache, and a disagreement fails the run.
func serveReferences(res *result, cfg hsd.Config, phases []*phase) ([][]string, string, error) {
	cache := hsd.NewDetCache(0)
	refs := make([][]string, len(phases))
	errs := make([]error, len(phases))
	var wg sync.WaitGroup
	for c, ph := range phases {
		wg.Add(1)
		go func(c int, ph *phase) {
			defer wg.Done()
			m, err := hsd.NewModel(cfg)
			if err != nil {
				errs[c] = err
				return
			}
			m.SetScanWorkers(1)
			m.SetScanCache(cache)
			refs[c] = make([]string, len(ph.versions))
			for v, body := range ph.versions {
				dets, err := scanText(m, body)
				if err != nil {
					errs[c] = err
					return
				}
				refs[c][v] = referenceDigest(dets)
			}
		}(c, ph)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, "", err
	}
	cold, err := hsd.NewModel(cfg)
	if err != nil {
		return nil, "", err
	}
	var out digest
	for c, ph := range phases {
		for v := range ph.samples {
			if ph.samples[v].class != 'E' {
				continue
			}
			s := ph.samples[v]
			dets, err := scanText(cold, ph.versions[s.version])
			if err != nil {
				return nil, "", err
			}
			res.check(referenceDigest(dets) == refs[c][s.version],
				"client %d: the reference scan of version %d differs from a cold scan of it", c, s.version)
			break
		}
		for v := 0; v < len(refs[c]) && v < 4; v++ {
			out.b = append(out.b, refs[c][v]...)
		}
	}
	return refs, out.sum(), nil
}

// scanText parses a layout text and scans its bounds at factor 1.
func scanText(m *hsd.Model, body []byte) ([]hsd.Detection, error) {
	l, err := layout.Load(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	dets := m.ScanLayoutMegatile(l, l.Bounds, 1).Detections
	if len(dets) == 0 {
		return nil, fmt.Errorf("a reference scan reports no detections, so its check would compare nothing")
	}
	return dets, nil
}

// serveReplay re-runs, beside each traced request, the layer calls the
// server makes on its body: ParseChecked, Diff against the client's
// previous layout for an edit, WeightsVersion, and per megatile Window,
// RegionRaster and RasterKey. Each client owns one, with its own model.
type serveReplay struct {
	rec *recorder
	m   *hsd.Model
	px  int64
}

func (sp *serveReplay) replay(op, root int, body, prev []byte) error {
	rec := sp.rec
	s := rec.start("layout.parse", op, root)
	l, err := layout.ParseChecked(bytes.NewReader(body), layout.Limits{})
	rec.end(s)
	if err != nil {
		return err
	}
	if prev != nil {
		old, err := layout.Load(bytes.NewReader(prev))
		if err != nil {
			return err
		}
		s = rec.start("layout.diff", op, root)
		layout.Diff(old, l)
		rec.end(s)
	}
	s = rec.start("hsd.version", op, root)
	version := sp.m.WeightsVersion()
	rec.end(s)
	g := newScanGrid(sp.m.Config, l.Bounds, 1)
	for _, y := range g.ys {
		for _, x := range g.xs {
			mt := rec.start("megatile", op, root)
			s = rec.start("layout.window", op, mt)
			sub := l.Window(layout.R(x, y, x+g.spec.RegionNM, y+g.spec.RegionNM))
			rec.end(s)
			s = rec.start("layout.raster", op, mt)
			raster := hsd.RegionRaster(sub, sp.m.Config, g.spec.PxSize)
			rec.end(s)
			sp.px += int64(raster.Dim(2) * raster.Dim(3))
			s = rec.start("hsd.rasterkey", op, mt)
			hsd.RasterKey(raster, version)
			rec.end(s)
			rec.end(mt)
		}
	}
	return nil
}

// traceServe runs the script untraced for half the run, then replays the
// same requests against a fresh server with every request traced and its
// body replayed through the server's layers. Both phases are checked.
func traceServe(rc *runCtx, hc *http.Client, clients []*serveClient, setup func() (time.Duration, error), live func() *liveServer) error {
	res := rc.res
	cfg := fastConfig()
	if _, err := setup(); err != nil {
		return err
	}
	am := startAlloc()
	untraced, _, err := runClients(hc, live().url, clients, time.Now().Add(rc.seconds/2), nil, nil)
	if err != nil {
		return err
	}
	steps := make([]int, len(untraced))
	var latU float64
	for c, ph := range untraced {
		steps[c] = len(ph.samples)
		for _, s := range ph.samples {
			latU += ms(s.latency)
		}
	}
	nReq := 0
	for _, n := range steps {
		nReq += n
	}
	warm, edit, cold := classLatencies(untraced)
	res.layer("serve.warm_ms_p50", quantile(warm, 0.5))
	res.layer("serve.warm_ms_p90", quantile(warm, 0.9))
	res.layer("serve.edit_ms_p50", quantile(edit, 0.5))
	res.layer("serve.cold_ms_p50", quantile(cold, 0.5))
	am.report(res, nReq)
	latU /= float64(nReq)
	if err := live().stop(); err != nil {
		return err
	}
	hc.CloseIdleConnections()

	if _, err := setup(); err != nil {
		return err
	}
	rec := newRecorder()
	replays := make([]*serveReplay, len(clients))
	for i := range replays {
		m, err := hsd.NewModel(cfg)
		if err != nil {
			return err
		}
		replays[i] = &serveReplay{rec: &recorder{t0: rec.t0}, m: m}
	}
	tensor.SetProfiling(true)
	calls := profileCalls()
	traced, _, err := runClients(hc, live().url, clients, time.Time{}, steps, replays)
	tensor.SetProfiling(false)
	if err != nil {
		return err
	}
	status, metricsText, err := scrape(hc, live().url)
	if err != nil {
		return err
	}
	if err := live().stop(); err != nil {
		return err
	}
	for _, sp := range replays {
		rec.merge(sp.rec)
	}
	tensorCallMetrics(res, calls, nReq)

	refs, digest, err := serveReferences(res, cfg, traced)
	if err != nil {
		return err
	}
	var latT, scan, overhead float64
	var dets, incremental, non2xx, scanned, reused, edits int
	for c, ph := range traced {
		if len(ph.versions) != len(untraced[c].versions) {
			return fmt.Errorf("client %d: traced phase posted %d versions, untraced %d", c, len(ph.versions), len(untraced[c].versions))
		}
		for i, s := range append(append([]sample(nil), untraced[c].samples...), ph.samples...) {
			res.check(s.status == http.StatusOK && s.digest == refs[c][s.version],
				"client %d request %d (%c): status %d, differs from the reference", c, i%steps[c], s.class, s.status)
		}
		for _, s := range ph.samples {
			latT += ms(s.latency)
			if s.status != http.StatusOK {
				non2xx++
				continue
			}
			scan += s.resp.ElapsedMS
			overhead += ms(s.latency) - s.resp.ElapsedMS
			dets += s.resp.Count
			if s.class == 'E' {
				edits++
			}
			if s.resp.Incremental {
				incremental++
				scanned += s.resp.TilesScanned
				reused += s.resp.TilesReused
			}
		}
	}
	n := float64(nReq)
	latT /= n
	self, count := rec.selfTimes()
	per := func(name string, by int) float64 {
		if by == 0 {
			return 0
		}
		return self[name] / 1e6 / float64(by)
	}
	megatiles := count["megatile"]
	res.layer("layout.parse_ms", per("layout.parse", nReq))
	res.layer("layout.diff_ms", per("layout.diff", count["layout.diff"]))
	res.layer("layout.window_ms", per("layout.window", megatiles))
	res.layer("layout.raster_ms", per("layout.raster", megatiles))
	res.layer("hsd.rasterkey_ms", per("hsd.rasterkey", megatiles))
	res.layer("hsd.version_ms", per("hsd.version", nReq))
	var px int64
	for _, sp := range replays {
		px += sp.px
	}
	res.layer("layout.raster_mpx", float64(px)/1e6/n)
	res.layer("hsd.dets", float64(dets)/n)
	res.layer("serve.scan_ms", scan/n)
	res.layer("serve.overhead_ms", overhead/n)
	res.layer("serve.non2xx", float64(non2xx))
	res.layer("serve.incremental_frac", float64(incremental)/n)
	if scanned+reused > 0 {
		res.layer("serve.dirty_frac", float64(scanned)/float64(scanned+reused))
	}
	res.layer("scancache.hit_ratio", status.CacheHitRate)
	res.layer("scancache.shared", float64(status.CacheShared))
	res.layer("scancache.evictions", float64(status.CacheEvictions))
	wait := promValue(metricsText, "rhsd_serve_queue_wait_seconds_sum") / promValue(metricsText, "rhsd_serve_queue_wait_seconds_count")
	res.layer("serve.queue_wait_ms", wait*1e3)
	// Rows of one request: the server's parse (replayed), queue wait and
	// scan; what they leave out is HTTP and JSON.
	reconcile(res, per("layout.parse", nReq)+wait*1e3+scan/n, latU, latT)
	m, err := hsd.NewModel(cfg)
	if err != nil {
		return err
	}
	kernelMetrics(res, m, cfg.Megatile(1).PxSize, 0)
	res.report["requests"] = nReq
	res.report["edit_requests"] = edits
	res.report["digest"] = digest
	return rec.dump(rc.traceOut)
}

// scrape reads /statusz and /metrics.
func scrape(hc *http.Client, url string) (serve.Status, string, error) {
	var st serve.Status
	resp, err := hc.Get(url + "/statusz")
	if err != nil {
		return st, "", err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return st, "", err
	}
	resp, err = hc.Get(url + "/metrics")
	if err != nil {
		return st, "", err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	return st, string(text), err
}

// promValue returns the value of an unlabelled series in Prometheus text.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}
