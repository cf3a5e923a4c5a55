// Command rhsd-detect runs one-pass region-based hotspot detection on a
// layout file with a trained checkpoint.
//
//	rhsd-detect -ckpt rhsd.ckpt -layout region.layout
//	rhsd-detect -ckpt rhsd.ckpt -layout chip.layout -png out.png
//
// Layouts larger than one model region are scanned in megatiles —
// factor×factor-region windows, each rasterized once and detected in a
// single fully-convolutional forward pass — and the per-megatile
// detections are merged with hotspot NMS. The -megatile flag picks the
// factor: 0 (default) sizes it automatically from the -megatile-mem
// workspace budget and an explicit N forces N×N regions per pass.
// Detections print as CSV (clip centre, size, score) in layout nm.
//
// Megatiles are scanned concurrently by the parallel compute engine;
// -workers (default: RHSD_WORKERS or NumCPU) sizes the pool. Results are
// bit-identical for every worker count.
//
// The -cpuprofile and -memprofile flags write pprof profiles of the scan
// for offline hot-path diagnosis; -trace writes a runtime/trace of the
// whole run, with every pipeline stage (backbone, enc-dec, inception,
// CPN, pruning, h-NMS, refinement) annotated as a trace region — open it
// with `go tool trace` to see where a scan's wall time goes across
// goroutines. -trace-dump instead prints the scan's own span trace — the
// same per-megatile timeline rhsd-serve's flight recorder retains — as
// an aligned text tree on stderr, no tooling required.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"rhsd/internal/eval"
	"rhsd/internal/hsd"
	"rhsd/internal/layout"
	"rhsd/internal/metrics"
	"rhsd/internal/parallel"
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
	"rhsd/internal/viz"
)

func main() {
	ckpt := flag.String("ckpt", "rhsd.ckpt", "model checkpoint from rhsd-train")
	layoutPath := flag.String("layout", "", "layout file (BOUNDS/RECT format)")
	pngPath := flag.String("png", "", "optional detection-map PNG output")
	thresh := flag.Float64("threshold", -1, "override score threshold, 0 allowed (negative = config default)")
	megatile := flag.Int("megatile", 0, "megatile factor: 0 = auto from -megatile-mem, N = N×N regions per pass")
	megatileMem := flag.Int("megatile-mem", 512, "inference workspace budget in MiB for -megatile 0 (auto)")
	workers := flag.Int("workers", 0, "compute worker pool size (0 = RHSD_WORKERS or NumCPU)")
	precision := flag.String("precision", "fp32", "trunk numeric path: fp32, or int8 (calibrated at startup on synthetic oracle-labeled layouts)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime/trace with per-stage regions to this file")
	traceDump := flag.Bool("trace-dump", false, "print the scan's span trace (per-megatile timeline) to stderr after the run")
	flag.Parse()

	// 0 means "unset" for -workers and -megatile, so an explicitly passed
	// bad value must be caught by inspecting which flags were set rather
	// than by comparing against the sentinel.
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
		}
	})
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := trace.Start(f); err != nil {
			fatal(err)
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	if *layoutPath == "" {
		fatal(fmt.Errorf("-layout is required"))
	}
	f, err := os.Open(*layoutPath)
	if err != nil {
		fatal(err)
	}
	l, err := layout.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	cfg := eval.FastProfile().HSD
	if *thresh >= 0 {
		cfg.ScoreThreshold = *thresh
	}
	m, err := hsd.NewModel(cfg)
	if err != nil {
		fatal(err)
	}
	if err := m.LoadChecked(*ckpt); err != nil {
		fatal(err)
	}
	if *precision == hsd.PrecisionInt8 {
		cal := eval.SyntheticCalibration(m.Config, 4)
		if err := m.CalibrateInt8(cal); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rhsd-detect: int8 trunk calibrated on %d synthetic regions\n", len(cal))
	}
	if err := m.SetPrecision(*precision); err != nil {
		fatal(err)
	}

	// -trace-dump records the scan into a one-slot flight recorder — the
	// same span tree rhsd-serve retains per request — and prints it as an
	// aligned text timeline, one line per megatile with its stage times.
	ctx := context.Background()
	var tr *telemetry.Trace
	if *traceDump {
		tensor.SetProfiling(true)
		tr = telemetry.NewFlightRecorder(1).StartTrace("detect", "cli", "")
		ctx = telemetry.ContextWithTrace(ctx, tr)
	}

	req := hsd.ScanRequest{Layout: l, Window: l.Bounds, Factor: *megatile}
	if req.Factor == 0 {
		req.Factor = m.AutoMegatileFactor(l.Bounds, int64(*megatileMem)<<20)
		fmt.Fprintf(os.Stderr, "rhsd-detect: auto megatile factor %d (budget %d MiB)\n", req.Factor, *megatileMem)
	}
	res, err := m.Scan(ctx, req)
	if err != nil {
		fatal(err)
	}
	dets := res.Detections
	if tr != nil {
		tr.Complete()
		tr.Snapshot().RenderText(os.Stderr)
	}
	fmt.Println("cx_nm,cy_nm,w_nm,h_nm,score")
	for _, d := range dets {
		fmt.Printf("%.1f,%.1f,%.1f,%.1f,%.4f\n",
			d.Clip.CX(), d.Clip.CY(), d.Clip.W(), d.Clip.H(), d.Score)
	}
	fmt.Fprintf(os.Stderr, "rhsd-detect: %d hotspot clips\n", len(dets))

	if *pngPath != "" {
		md := make([]metrics.Detection, len(dets))
		for i, d := range dets {
			md[i] = metrics.Detection{Clip: d.Clip, Score: d.Score}
		}
		c := viz.RenderRegion(l, nil, md, 768)
		if err := c.SaveFile(*pngPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rhsd-detect: wrote %s\n", *pngPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rhsd-detect:", err)
	os.Exit(1)
}
