// Command rhsd-bench regenerates the paper's evaluation artifacts on the
// synthetic benchmark suite:
//
//	rhsd-bench -exp table1              # detector comparison (Table 1)
//	rhsd-bench -exp figure9 -out out/   # qualitative panels (Figure 9)
//	rhsd-bench -exp figure10            # ablation study (Figure 10)
//	rhsd-bench -exp quant               # int8 accuracy-delta gate
//	rhsd-bench -exp all -out out/
//
// -exp quant trains one model, evaluates it in fp32 and int8 and prints
// the gate's verdict line; the command exits 1 unless the verdict is
// PASS. Performance is measured by the repository benchmark under
// perfbench/, not here.
//
// The -workers flag (default: RHSD_WORKERS or NumCPU) sizes the worker
// pool used by the parallel compute engine. The -cpuprofile and
// -memprofile flags write pprof profiles covering whatever experiments
// ran, for offline hot-path diagnosis; -trace writes a runtime/trace
// with per-stage regions for `go tool trace`.
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
	"strings"
	"time"

	"rhsd/internal/dataset"
	"rhsd/internal/eval"
	"rhsd/internal/parallel"
	"rhsd/internal/tensor"
)

func main() {
	expFlag := flag.String("exp", "table1", "experiment to run: table1, table1-ext, figure9, figure10, roc, ablation-ext, quant, all")
	outFlag := flag.String("out", "out", "output directory for figure panels and CSVs")
	trainSteps := flag.Int("steps", 0, "override R-HSD training steps (0 = profile default)")
	nTrain := flag.Int("train-regions", 0, "override training regions per case (0 = profile default)")
	nTest := flag.Int("test-regions", 0, "override test regions per case (0 = profile default)")
	seed := flag.Int64("seed", 0, "override model seed (0 = profile default)")
	workersFlag := flag.Int("workers", 0, "compute worker pool size (0 = RHSD_WORKERS or NumCPU)")
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
	runQuant := *expFlag == "quant" || *expFlag == "all"
	if !runTable1 && !runFig9 && !runFig10 && !runROC && !runExtAbl && !runExtTable && !runQuant {
		fatal(fmt.Errorf("unknown experiment %q", *expFlag))
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

	if runQuant {
		if err := runQuantGate(p, data, progress); err != nil {
			fatal(err)
		}
	}
}

// runQuantGate runs the int8 accuracy-delta gate on data: it trains one
// model, runs the Table-1 protocol in fp32 and int8 and scores the
// deltas against the shipping budget. It prints the verdict line, which
// names no kernel or time, so runs under different int8 kernels can be
// compared byte for byte, and it returns an error unless the verdict is
// PASS. A profile too small to train a model that finds hotspots is
// INCONCLUSIVE (fp32 recall under 50% or fewer than 100 hotspots),
// which fails like an over-budget drift.
func runQuantGate(p eval.Profile, data *eval.Data, progress func(string)) error {
	progress(fmt.Sprintf("int8 accuracy gate: %d workers, int8 kernel %s", parallel.Workers(), tensor.QGemmKernel()))
	res, err := eval.RunQuantGate(p, data, eval.DefaultQuantGateBudget(), progress)
	if err != nil {
		return err
	}
	fmt.Printf("int8 accuracy gate: %s (recall %.2f%% → %.2f%% over %d hotspots, FA %d → %d, %d calibration rasters)\n",
		res.Verdict(), res.FP32.Accuracy()*100, res.Int8.Accuracy()*100, res.FP32.GroundTruth,
		res.FP32.FalseAlarms, res.Int8.FalseAlarms, res.CalibrationRasters)
	if !res.Pass {
		return fmt.Errorf("int8 accuracy gate %s: %s", res.Verdict(), strings.Join(res.Reasons, "; "))
	}
	return nil
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
