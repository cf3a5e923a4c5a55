package main

import (
	"fmt"
	"path/filepath"
	"time"

	"rhsd/internal/eval"
	"rhsd/internal/hsd"
	"rhsd/internal/tensor"
)

// calibrationRasters is how many synthetic regions arm the int8 trunk,
// as rhsd-detect -precision int8 does at start-up.
const calibrationRasters = 4

// runRegion times back-to-back int8 Model.Detect calls on the generated
// region rasters, each checked against a reference computed once per
// region on a fresh Model.Clone.
func runRegion(rc *runCtx) error {
	res := rc.res
	cfg := paperConfig()
	paths, err := filepath.Glob(filepath.Join(rc.inputs, "regions", "*.layout"))
	if err != nil || len(paths) == 0 {
		return fmt.Errorf("no region inputs under %s", rc.inputs)
	}
	var rasters []*tensor.Tensor
	for _, p := range paths {
		l, err := loadLayout(p)
		if err != nil {
			return err
		}
		rasters = append(rasters, hsd.RegionRaster(l, cfg, cfg.InputSize))
	}

	var m *hsd.Model
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		nm, err := hsd.NewModel(cfg)
		if err != nil {
			return 0, err
		}
		// int8 must arm; the workload is not applicable otherwise and
		// never falls back to fp32.
		if err := nm.CalibrateInt8(eval.SyntheticCalibration(cfg, calibrationRasters)); err != nil {
			return 0, fmt.Errorf("not applicable on this host: int8 does not arm: %w", err)
		}
		if err := nm.SetPrecision(hsd.PrecisionInt8); err != nil {
			return 0, fmt.Errorf("not applicable on this host: %w", err)
		}
		nm.Detect(rasters[0])
		m = nm
		return time.Since(t0), nil
	}
	res.report["regions"] = len(rasters)
	if rc.trace {
		if _, err := setup(); err != nil {
			return err
		}
		return traceRegion(rc, m, rasters)
	}

	setupS, err := setupMedian(func(int) (time.Duration, error) { return setup() })
	if err != nil {
		return err
	}
	res.set("setup_s", setupS)

	rss := startRSS()
	var msecs []float64
	var got []string
	timedLoop(rc.seconds, func() {
		x := rasters[len(got)%len(rasters)]
		t0 := time.Now()
		dets := m.Detect(x)
		msecs = append(msecs, ms(time.Since(t0)))
		got = append(got, detsDigest(dets))
	})
	res.set("peak_rss_mib", rss.stopMiB())

	want, count, err := regionReference(m, rasters)
	if err != nil {
		return err
	}
	for i, d := range got {
		res.check(d == want[i%len(want)], "detect %d (region %d) differs from the reference", i, i%len(want))
	}
	area := float64(cfg.RegionNM()) * float64(cfg.RegionNM()) / 1e6 // µm²
	res.set("um2_per_s", area/(quantile(msecs, 0.5)/1e3))
	latencyMetrics(res, msecs)
	res.report["detects"] = len(msecs)
	res.report["detections"] = count
	res.report["digest"] = digestOf(want)
	return nil
}

// regionReference detects every raster once on a fresh clone of m and
// returns the per-region digests and the total detection count. An
// empty region fails the run: its check would compare nothing.
func regionReference(m *hsd.Model, rasters []*tensor.Tensor) ([]string, int, error) {
	ref, err := m.Clone()
	if err != nil {
		return nil, 0, err
	}
	want := make([]string, len(rasters))
	count := 0
	for i, x := range rasters {
		dets := ref.Detect(x)
		if len(dets) == 0 {
			return nil, 0, fmt.Errorf("region %d has no detections, so its check would compare nothing", i)
		}
		want[i] = detsDigest(dets)
		count += len(dets)
	}
	return want, count, nil
}

func digestOf(parts []string) string {
	var d digest
	for _, p := range parts {
		d.b = append(d.b, p...)
	}
	return d.sum()
}

// traceRegion detects every region untraced and replays each as
// Detect's public steps with spans, checking the replay against the
// reference.
func traceRegion(rc *runCtx, m *hsd.Model, rasters []*tensor.Tensor) error {
	res := rc.res
	want, _, err := regionReference(m, rasters)
	if err != nil {
		return err
	}
	am := startAlloc()
	for _, x := range rasters {
		m.Detect(x)
	}
	am.report(res, len(rasters))

	// Untraced and traced detects alternate region by region, so load
	// that drifts during the run shifts both sides alike.
	rec := newRecorder()
	rp, err := newReplayer(m, rec)
	if err != nil {
		return err
	}
	calls := profileCalls()
	var untraced, traced float64
	dets := 0
	for i, x := range rasters {
		t0 := time.Now()
		m.Detect(x)
		untraced += ms(time.Since(t0))
		tensor.SetProfiling(true)
		t0 = time.Now()
		root := rec.start("op", i, -1)
		got := rp.detect(i, root, x)
		rec.end(root)
		traced += ms(time.Since(t0))
		tensor.SetProfiling(false)
		res.check(detsDigest(got) == want[i], "the traced replay of region %d differs from the reference", i)
		dets += len(got)
	}
	untraced /= float64(len(rasters))
	traced /= float64(len(rasters))
	tensorCallMetrics(res, calls, rp.passes)

	rows := spanMetrics(res, rec, len(rasters), rp, 0)
	res.layer("hsd.dets", float64(dets)/float64(len(rasters)))
	reconcile(res, rows, untraced, traced)
	kernelMetrics(res, m, m.Config.InputSize, res.layers["hsd.trunk_ms"])
	res.report["digest"] = digestOf(want)
	return rec.dump(rc.traceOut)
}
