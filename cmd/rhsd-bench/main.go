// Command rhsd-bench regenerates the paper's evaluation artifacts on the
// synthetic benchmark suite:
//
//	rhsd-bench -exp table1              # detector comparison (Table 1)
//	rhsd-bench -exp figure9 -out out/   # qualitative panels (Figure 9)
//	rhsd-bench -exp figure10            # ablation study (Figure 10)
//	rhsd-bench -exp parallel            # serial vs parallel compute engine
//	rhsd-bench -exp alloc               # heap-path vs zero-alloc inference
//	rhsd-bench -exp scan                # per-tile vs megatile full-chip scan
//	rhsd-bench -exp obs                 # telemetry-on vs telemetry-off overhead
//	rhsd-bench -exp serve               # cached serving daemon under load
//	rhsd-bench -exp simd                # per-GEMM-kernel throughput comparison
//	rhsd-bench -exp quant               # int8 vs fp32 kernels + accuracy gate
//	rhsd-bench -exp all -out out/
//
// The -workers flag (default: RHSD_WORKERS or NumCPU) sizes the worker
// pool used by the parallel compute engine; -exp parallel writes the
// serial-vs-parallel wall-clock comparison to BENCH_parallel.json,
// -exp alloc writes the allocation comparison (unblocked vs packed GEMM,
// training-path vs workspace-backed inference) to BENCH_alloc.json, and
// -exp scan writes the per-tile vs megatile scan comparison to
// BENCH_scan.json, -exp obs writes the telemetry overhead guard
// (instrumented vs uninstrumented Detect, budget <1%) to BENCH_obs.json,
// and -exp serve drives an in-process detection daemon with the megatile
// result cache enabled (90% repeat ratio, cold/warm latency percentiles,
// one incremental ?since= rescan) and writes BENCH_serve.json.
// -exp simd measures every GEMM micro-kernel available on the host
// (packed throughput at the dominant backbone shape, end-to-end Detect
// delta, fused vs materialized im2col) and writes BENCH_simd.json.
// -exp quant measures every int8 GEMM kernel against the float32 avx512
// baseline (packed throughput, end-to-end detection under a calibrated
// int8 trunk, steady-state allocations) plus the fp32-vs-int8
// accuracy-delta gate on a FastProfile model, writes BENCH_quant.json,
// and exits non-zero when the gate fails or is inconclusive.
// All reports embed host metadata (CPU count, GOMAXPROCS, arch, CPU
// feature flags, active GEMM and int8-GEMM kernels).
// On a host with fewer than two CPUs, -exp parallel and -exp serve
// refuse to emit speedup numbers and record {"status": "skipped"} with
// the reason instead; -exp simd does the same on hosts without AVX2,
// and -exp quant on hosts without AVX-512-VNNI.
//
// The -cpuprofile and -memprofile flags write pprof profiles covering
// whatever experiments ran, for offline hot-path diagnosis; -trace
// writes a runtime/trace with per-stage regions for `go tool trace`.
//
// All experiments run the FastProfile: a proportionally shrunk
// configuration that executes in minutes on one CPU core. Absolute
// numbers therefore differ from the paper's GPU-scale results; the
// comparison *shape* (who wins, by roughly how much) is the reproduction
// target. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"rhsd/internal/dataset"
	"rhsd/internal/eval"
	"rhsd/internal/parallel"
	"rhsd/internal/tensor"
)

func main() {
	expFlag := flag.String("exp", "table1", "experiment to run: table1, table1-ext, figure9, figure10, roc, ablation-ext, parallel, alloc, scan, obs, serve, simd, quant, all")
	outFlag := flag.String("out", "out", "output directory for figure panels and CSVs")
	trainSteps := flag.Int("steps", 0, "override R-HSD training steps (0 = profile default)")
	nTrain := flag.Int("train-regions", 0, "override training regions per case (0 = profile default)")
	nTest := flag.Int("test-regions", 0, "override test regions per case (0 = profile default)")
	seed := flag.Int64("seed", 0, "override model seed (0 = profile default)")
	workersFlag := flag.Int("workers", 0, "compute worker pool size (0 = RHSD_WORKERS or NumCPU)")
	parallelOut := flag.String("parallel-out", "BENCH_parallel.json", "output path for the -exp parallel report")
	allocOut := flag.String("alloc-out", "BENCH_alloc.json", "output path for the -exp alloc report")
	scanOut := flag.String("scan-out", "BENCH_scan.json", "output path for the -exp scan report")
	obsOut := flag.String("obs-out", "BENCH_obs.json", "output path for the -exp obs report")
	serveOut := flag.String("serve-out", "BENCH_serve.json", "output path for the -exp serve report")
	simdOut := flag.String("simd-out", "BENCH_simd.json", "output path for the -exp simd report")
	quantOut := flag.String("quant-out", "BENCH_quant.json", "output path for the -exp quant report")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime/trace with per-stage regions to this file")
	flag.Parse()

	// 0 means "unset" for -workers, so an explicitly passed bad value is
	// caught by checking which flags were set, not the sentinel.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" && *workersFlag < 1 {
			fatal(fmt.Errorf("-workers must be >= 1 (got %d)", *workersFlag))
		}
	})
	if *workersFlag > 0 {
		parallel.SetWorkers(*workersFlag)
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
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile)
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

	p := eval.FastProfile()
	if *trainSteps > 0 {
		p.HSD.TrainSteps = *trainSteps
	}
	if *nTrain > 0 {
		p.NTrain = *nTrain
	}
	if *nTest > 0 {
		p.NTest = *nTest
	}
	if *seed != 0 {
		p.HSD.Seed = *seed
	}
	if err := p.Validate(); err != nil {
		fatal(err)
	}

	progress := func(s string) {
		fmt.Printf("[%s] %s\n", time.Now().Format("15:04:05"), s)
	}

	runTable1 := *expFlag == "table1" || *expFlag == "all"
	runFig9 := *expFlag == "figure9" || *expFlag == "all"
	runFig10 := *expFlag == "figure10" || *expFlag == "all"
	runROC := *expFlag == "roc" || *expFlag == "all"
	runExtAbl := *expFlag == "ablation-ext" || *expFlag == "all"
	runExtTable := *expFlag == "table1-ext" || *expFlag == "all"
	runPar := *expFlag == "parallel" || *expFlag == "all"
	runAlloc := *expFlag == "alloc" || *expFlag == "all"
	runScan := *expFlag == "scan" || *expFlag == "all"
	runObs := *expFlag == "obs" || *expFlag == "all"
	runServe := *expFlag == "serve" || *expFlag == "all"
	runSimd := *expFlag == "simd" || *expFlag == "all"
	runQuant := *expFlag == "quant" || *expFlag == "all"
	if !runTable1 && !runFig9 && !runFig10 && !runROC && !runExtAbl && !runExtTable && !runPar && !runAlloc && !runScan && !runObs && !runServe && !runSimd && !runQuant {
		fatal(fmt.Errorf("unknown experiment %q", *expFlag))
	}

	if runPar {
		progress(fmt.Sprintf("parallel compute bench: %d workers", parallel.Workers()))
		if err := runParallelBench(p, parallel.Workers(), *parallelOut, progress); err != nil {
			fatal(err)
		}
	}

	if runAlloc {
		progress(fmt.Sprintf("allocation bench: %d workers", parallel.Workers()))
		if err := runAllocBench(p, parallel.Workers(), *allocOut, progress); err != nil {
			fatal(err)
		}
	}

	if runScan {
		progress(fmt.Sprintf("scan bench: %d workers", parallel.Workers()))
		if err := runScanBench(p, parallel.Workers(), *scanOut, progress); err != nil {
			fatal(err)
		}
	}

	if runObs {
		progress(fmt.Sprintf("observability overhead bench: %d workers", parallel.Workers()))
		if err := runObsBench(p, parallel.Workers(), *obsOut, progress); err != nil {
			fatal(err)
		}
	}

	if runServe {
		progress(fmt.Sprintf("serving bench: %d workers", parallel.Workers()))
		if err := runServeBench(p, parallel.Workers(), *serveOut, progress); err != nil {
			fatal(err)
		}
	}

	if runSimd {
		progress(fmt.Sprintf("simd kernel bench: %d workers, active kernel %s", parallel.Workers(), tensor.GemmKernel()))
		if err := runSimdBench(p, parallel.Workers(), *simdOut, progress); err != nil {
			fatal(err)
		}
	}

	if runQuant {
		progress(fmt.Sprintf("quant kernel bench: %d workers, active int8 kernel %s", parallel.Workers(), tensor.QGemmKernel()))
		if err := runQuantBench(p, parallel.Workers(), *quantOut, progress); err != nil {
			fatal(err)
		}
	}

	needData := runTable1 || runFig9 || runFig10 || runROC || runExtAbl || runExtTable
	if !needData {
		return
	}
	progress("generating benchmark cases")
	data := eval.LoadData(p)
	for _, ds := range data.Cases {
		progress(fmt.Sprintf("%s: train %v | test %v",
			ds.Name, dataset.ComputeStats(ds.Train), dataset.ComputeStats(ds.Test)))
	}

	if runTable1 {
		tbl, err := eval.RunTable1(p, data, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nTable 1 — comparison with state-of-the-art")
		fmt.Println(tbl.Render(eval.DetTCAD))
		if err := os.MkdirAll(*outFlag, 0o755); err != nil {
			fatal(err)
		}
		csvPath := *outFlag + "/table1.csv"
		if err := os.WriteFile(csvPath, []byte(tbl.CSV()), 0o644); err != nil {
			fatal(err)
		}
		progress("wrote " + csvPath)
	}

	if runFig10 {
		variants, err := eval.RunFigure10(p, data, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Println(eval.RenderFigure10(variants))
	}

	if runExtTable {
		tbl, err := eval.RunExtendedTable1(p, data, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nExtended Table 1 — the paper's other method classes")
		fmt.Println(tbl.Render(eval.DetOurs))
	}

	if runExtAbl {
		variants, err := eval.RunExtendedAblation(p, data, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nExtended ablation — anchor diversity and NMS choice")
		fmt.Println(eval.RenderFigure10(variants))
	}

	if runROC {
		rs, err := eval.RunROC(p, data, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Println(eval.RenderROCResults(rs))
	}

	if runFig9 {
		if err := eval.RunFigure9(p, data, *outFlag, progress); err != nil {
			fatal(err)
		}
		progress("figure 9 panels in " + *outFlag)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rhsd-bench:", err)
	os.Exit(1)
}

// writeHeapProfile snapshots the heap after a final GC, the conventional
// -memprofile behaviour.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}
