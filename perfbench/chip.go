package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rhsd/internal/hsd"
	"rhsd/internal/layout"
	"rhsd/internal/tensor"
)

const (
	// chipFactor is the megatile factor of chip_fp32: the factor
	// AutoMegatileFactor picks at the default 512 MiB budget, since a
	// PaperConfig region needs ~150 MB of workspace.
	chipFactor = 1
	// scanWorkers is the scan fan-out of chip_fp32, sized for a 2-CPU
	// machine: one scan worker per CPU.
	scanWorkers = 2
)

func loadLayout(path string) (*layout.Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l, err := layout.Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// paperConfig is PaperConfig reporting every clip: seed-random weights
// score clips 0.1-0.3, so the default 0.5 threshold would report nothing
// and every output check would compare empty lists.
func paperConfig() hsd.Config {
	c := hsd.PaperConfig()
	c.ScoreThreshold = 0
	return c
}

// runChip times full-chip scans: DetectLayoutMegatile on the generated
// 3×3-region window, each scan checked against the set-up's warm-up scan
// and a one-worker scan of the same window (worker-count bit-identity).
func runChip(rc *runCtx) error {
	res := rc.res
	l, err := loadLayout(filepath.Join(rc.inputs, "chip.layout"))
	if err != nil {
		return err
	}
	cfg := paperConfig()
	window := l.Bounds
	var m *hsd.Model
	var warm []string
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		nm, err := hsd.NewModel(cfg)
		if err != nil {
			return 0, err
		}
		nm.SetScanWorkers(scanWorkers)
		dets := nm.DetectLayoutMegatile(l, window, chipFactor)
		d := time.Since(t0)
		m = nm
		warm = append(warm, detsDigest(dets))
		if len(dets) == 0 {
			return 0, fmt.Errorf("the warm-up scan reports no detections, so no output check would check anything")
		}
		return d, nil
	}
	area := float64(window.W()) * float64(window.H()) / 1e6 // µm²
	res.report["window_nm"] = []int{window.W(), window.H()}
	g := newScanGrid(cfg, window, chipFactor)
	res.report["megatiles"] = len(g.xs) * len(g.ys)
	if rc.trace {
		if _, err := setup(); err != nil {
			return err
		}
		return traceChip(rc, m, l)
	}

	setupS, err := setupMedian(func(int) (time.Duration, error) { return setup() })
	if err != nil {
		return err
	}
	res.set("setup_s", setupS)
	for i := 1; i < len(warm); i++ {
		res.check(warm[i] == warm[0], "set-up %d's warm-up scan differs from set-up 0's", i)
	}

	rss := startRSS()
	var secs []float64
	var digests []string
	timedLoop(rc.seconds, func() {
		t0 := time.Now()
		dets := m.DetectLayoutMegatile(l, window, chipFactor)
		secs = append(secs, time.Since(t0).Seconds())
		digests = append(digests, detsDigest(dets))
	})
	res.set("peak_rss_mib", rss.stopMiB())

	m.SetScanWorkers(1)
	one := m.DetectLayoutMegatile(l, window, chipFactor)
	oneDigest := detsDigest(one)
	for i, d := range digests {
		res.check(d == warm[0] && d == oneDigest,
			"scan %d differs from the warm-up scan or from the one-worker scan", i)
	}
	res.set("um2_per_s", area/quantile(secs, 0.5))
	msecs := make([]float64, len(secs))
	for i, v := range secs {
		msecs[i] = v * 1e3
	}
	latencyMetrics(res, msecs)
	res.report["scans"] = len(secs)
	res.report["detections"] = len(one)
	res.report["digest"] = oneDigest
	return nil
}

// traceChip measures the scan untraced at scanWorkers and at one worker,
// then replays it serially with spans. The replay is compared with the
// one-worker scans, whose time it must account for.
func traceChip(rc *runCtx, m *hsd.Model, l *layout.Layout) error {
	res := rc.res
	cfg := m.Config
	window := l.Bounds
	am := startAlloc()
	t0 := time.Now()
	many := m.DetectLayoutMegatile(l, window, chipFactor)
	tMany := time.Since(t0)
	m.SetScanWorkers(1)
	t0 = time.Now()
	one := m.DetectLayoutMegatile(l, window, chipFactor)
	tOne := time.Since(t0)
	am.report(res, 2)
	res.check(detsDigest(many) == detsDigest(one), "the %d-worker scan differs from the one-worker scan", scanWorkers)

	rec := newRecorder()
	rp, err := newReplayer(m, rec)
	if err != nil {
		return err
	}
	g := newScanGrid(cfg, window, chipFactor)
	tensor.SetProfiling(true)
	calls := profileCalls()
	px := layout.RasterizedPixels()
	t0 = time.Now()
	root := rec.start("op", 0, -1)
	dets := rp.replayScan(0, root, l, g)
	rec.end(root)
	tTraced := time.Since(t0)
	tensor.SetProfiling(false)
	res.layer("layout.raster_mpx", float64(layout.RasterizedPixels()-px)/1e6)
	res.check(detsDigest(dets) == detsDigest(one), "the traced replay differs from the untraced scan")
	tensorCallMetrics(res, calls, rp.passes)
	// A second untraced scan brackets the replay, so load that drifts
	// during the run shifts both sides of the reconciliation alike.
	t0 = time.Now()
	again := m.DetectLayoutMegatile(l, window, chipFactor)
	tOne = (tOne + time.Since(t0)) / 2
	res.check(detsDigest(again) == detsDigest(one), "a repeated one-worker scan differs from the first")

	if runtime.NumCPU() >= 2 {
		res.layer("parallel.speedup", tOne.Seconds()/tMany.Seconds())
	}
	megatiles := len(g.xs) * len(g.ys)
	rows := spanMetrics(res, rec, 1, rp, megatiles)
	res.layer("hsd.dets", float64(len(dets)))
	reconcile(res, rows, ms(tOne), ms(tTraced))
	kernelMetrics(res, m, g.spec.PxSize, res.layers["hsd.trunk_ms"])
	res.report["digest"] = detsDigest(one)
	return rec.dump(rc.traceOut)
}

// rowSpans are the span names whose self times are per-layer rows; the
// op and megatile spans only group them.
var rowSpans = map[string]string{
	"layout.window": "layout.window_ms", "layout.raster": "layout.raster_ms",
	"hsd.trunk": "", "hsd.backbone": "hsd.backbone_ms", "hsd.encdec": "hsd.encdec_ms",
	"hsd.inception": "hsd.inception_ms", "hsd.cpn": "hsd.cpn_ms",
	"hsd.proposals": "hsd.proposals_ms", "hsd.refine": "hsd.refine_ms", "hsd.decode": "hsd.decode_ms",
	"hsd.merge": "hsd.merge_ms",
}

// spanMetrics reports the replay's per-layer rows — layout steps per
// megatile, trunk and head steps per detection pass, the merge per op —
// and returns the rows' total self time per op in ms.
func spanMetrics(res *result, rec *recorder, ops int, rp *replayer, megatiles int) float64 {
	self, count := rec.selfTimes()
	var rows float64
	names := make([]string, 0, len(rowSpans))
	for name := range rowSpans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows += self[name]
		metric := rowSpans[name]
		if metric == "" || count[name] == 0 {
			continue
		}
		res.layer(metric, self[name]/1e6/float64(count[name]))
	}
	// The trunk row is InferBase whole; in fp32 it also has the stage rows
	// above as children.
	var trunk float64
	for _, s := range rec.spans {
		if s.Name == "hsd.trunk" {
			trunk += float64(s.End - s.Start)
		}
	}
	res.layer("hsd.trunk_ms", trunk/1e6/float64(rp.passes))
	res.layer("hsd.rois", float64(rp.rois)/float64(rp.passes))
	res.report["replay_passes"] = rp.passes
	res.report["replay_megatiles"] = megatiles
	return rows / 1e6 / float64(ops)
}
