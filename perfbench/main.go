// Command perfbench is the repository benchmark. It drives one workload
// through the public APIs of the hsd, serve, layout and tensor packages
// on inputs its own generator wrote from a seed, checks every output and
// prints the metrics by name with their units.
//
//	perfbench gen -seed N -seconds S -out DIR
//	perfbench --workload W --inputs DIR --seconds S --trace 0|1
//
// run.sh builds the binary from source, runs the generator and then the
// workload. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, timed untraced;
// with --trace 1 they are the per-layer ones from a traced replay. The
// line before it is a report: host, output digest, the workload's
// rationale and everything a reader needs to interpret the numbers.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rhsd/internal/cpu"
	"rhsd/internal/hsd"
	"rhsd/internal/tensor"
)

// workload is one set of inputs the benchmark runs, with the reason it
// exists and the layers it is meant to load and to leave alone.
type workload struct {
	name, why       string
	loads, bypasses []string
	run             func(*runCtx) error
}

var workloads = []workload{
	{
		name: "chip_fp32",
		why: "full-chip sign-off: DetectLayoutMegatile at PaperConfig, fp32, no cache, factor 1, " +
			"2 scan workers on a 3x3-region window (16 megatiles)",
		loads:    []string{"hsd fp32 trunk", "hsd heads", "hsd merge", "layout window+raster", "tensor fp32 GEMM", "parallel scan fan-out"},
		bypasses: []string{"int8 qgemm/quantize", "scancache", "layout parse/diff", "serve/HTTP"},
		run:      runChip,
	},
	{
		name: "region_int8",
		why: "the paper's unit of work: back-to-back Model.Detect on prebuilt 256-px PaperConfig " +
			"region rasters with the int8 trunk armed (SyntheticCalibration + CalibrateInt8)",
		loads:    []string{"tensor qgemm/quantize", "hsd fp32 CPN + refinement tail", "hsd proposals"},
		bypasses: []string{"layout", "megatile scan + merge", "parallel scan fan-out", "scancache", "serve/HTTP"},
		run:      runRegion,
	},
	{
		name: "serve_dfm",
		why: "DFM edit loop against an in-process serve.Server over loopback HTTP: FastProfile, fp32, " +
			"64 MiB result cache, factor 1, pool 2, 2 closed-loop clients posting 10% novel layouts, " +
			"30% one-rect edits with ?since= and 60% repeats",
		loads:    []string{"layout parse/raster/diff", "hsd RasterKey + WeightsVersion", "scancache", "incremental rescan", "serve/HTTP"},
		bypasses: []string{"int8 path", "PaperConfig-scale trunk compute"},
		run:      runServe,
	},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units of every metric the benchmark reports, end-to-end and per-layer.
var units = map[string]string{
	"setup_s": "s", "peak_rss_mib": "MiB", "um2_per_s": "um2/s", "op_ms_p50": "ms", "op_ms_p75": "ms",

	"layout.window_ms": "ms", "layout.raster_ms": "ms", "layout.raster_mpx": "Mpx",
	"layout.parse_ms": "ms", "layout.diff_ms": "ms",
	"hsd.trunk_ms": "ms", "hsd.backbone_ms": "ms", "hsd.encdec_ms": "ms",
	"hsd.inception_ms": "ms", "hsd.cpn_ms": "ms", "hsd.proposals_ms": "ms",
	"hsd.refine_ms": "ms", "hsd.decode_ms": "ms", "hsd.rois": "count",
	"hsd.merge_ms": "ms", "hsd.dets": "count", "hsd.version_ms": "ms", "hsd.rasterkey_ms": "ms",
	"tensor.gemm_gflops": "GF/s", "tensor.qgemm_gops": "Gop/s", "tensor.refine_gemm_gflops": "GF/s",
	"tensor.trunk_gflop": "GF", "tensor.trunk_peak_frac": "ratio",
	"tensor.packed_calls": "count", "tensor.qgemm_calls": "count", "tensor.rows_calls": "count",
	"parallel.speedup":    "ratio",
	"scancache.hit_ratio": "ratio", "scancache.shared": "count", "scancache.evictions": "count",
	"serve.scan_ms": "ms", "serve.overhead_ms": "ms", "serve.queue_wait_ms": "ms",
	"serve.incremental_frac": "ratio", "serve.dirty_frac": "ratio", "serve.non2xx": "count",
	"serve.warm_ms_p50": "ms", "serve.warm_ms_p90": "ms", "serve.edit_ms_p50": "ms", "serve.cold_ms_p50": "ms",
	"runtime.alloc_kib_per_op": "KiB", "runtime.gc_per_op": "count",
	"trace.unattributed_pct": "%", "trace.overhead_pct": "%",
}

// endToEnd are the metrics every workload reports untraced: set-up
// time, resident memory, layout area handled per second and the median
// and upper-quartile latency of the workload's operation (a chip scan, a
// region detect, an HTTP request).
var endToEnd = []string{"setup_s", "peak_rss_mib", "um2_per_s", "op_ms_p50", "op_ms_p75"}

func isEndToEnd(name string) bool {
	for _, n := range endToEnd {
		if n == name {
			return true
		}
	}
	return false
}

// unattributedBound is how far, in percent of the untraced op time, the
// traced rows may fall short of or overshoot the untraced op before the
// traced run counts as failed.
const unattributedBound = 20

// result accumulates one run's outcome.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	layers            map[string]float64
	report            map[string]any
}

func (r *result) set(name string, v float64) { r.metrics[name] = metric{Value: v, Unit: units[name]} }

func (r *result) layer(name string, v float64) { r.layers[name] = v }

// check records one verified operation or whole-run invariant.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// runCtx is what a workload runs with.
type runCtx struct {
	inputs   string
	seconds  time.Duration
	trace    bool
	traceOut string
	res      *result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := runGen(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run")
	inputs := flag.String("inputs", "", "directory written by `perfbench gen`")
	seconds := flag.Int("seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceOut := flag.String("trace-out", "", "file the traced run writes its spans to")
	flag.Int64("seed", 0, "input seed (consumed by the generator; recorded here)")
	flag.Parse()
	if *inputs == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --inputs, a positive --seconds and --trace 0|1 are required")
		os.Exit(2)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res := &result{metrics: map[string]metric{}, layers: map[string]float64{}, report: map[string]any{}}
	rc := &runCtx{inputs: *inputs, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, traceOut: *traceOut, res: res}
	if err := w.run(rc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if rc.trace {
		// Every per-layer metric is printed; a layer the workload does not
		// exercise reads 0. The parallel speedup is only defined with at
		// least two CPUs.
		for name := range units {
			if isEndToEnd(name) || (name == "parallel.speedup" && runtime.NumCPU() < 2) {
				continue
			}
			res.set(name, res.layers[name])
		}
	}
	if res.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operation\n", w.name)
		os.Exit(1)
	}
	res.report["workload"] = w.name
	res.report["why"] = w.why
	res.report["loads"] = w.loads
	res.report["bypasses"] = w.bypasses
	res.report["host"] = hostRecord()
	res.report["trace"] = rc.trace
	if rc.trace {
		res.report["layer_targets"] = layerTargets
	}
	res.report["seed"] = flag.Lookup("seed").Value.String()
	if len(res.problems) > 0 {
		res.report["problems"] = res.problems
		for _, p := range res.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
	}
	printJSON(map[string]any{"report": res.report})
	printJSON(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
}

func printJSON(v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// hostRecord is the machine context every result embeds.
func hostRecord() map[string]any {
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"cpu_features": cpu.X86.FeatureList(),
		"gemm_kernel":  tensor.GemmKernel(),
		"qgemm_kernel": tensor.QGemmKernel(),
	}
}

// digest is a SHA-256 over float64 bit patterns.
type digest struct{ b []byte }

func (d *digest) u64(v uint64) { d.b = binary.LittleEndian.AppendUint64(d.b, v) }

func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.b)
	return hex.EncodeToString(s[:])
}

// detsDigest hashes detections bit-exactly, in order.
func detsDigest(dets []hsd.Detection) string {
	var d digest
	d.u64(uint64(len(dets)))
	for _, x := range dets {
		d.f64(x.Clip.X0, x.Clip.Y0, x.Clip.X1, x.Clip.Y1, x.Score)
	}
	return d.sum()
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place); 0 when there are no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// timedLoop runs op back to back for about d: it starts another op only
// while the phase, extended by half the previous op, still fits in d, so
// the phase ends near d on average however long an op takes.
func timedLoop(d time.Duration, op func()) {
	var last time.Duration
	for start := time.Now(); time.Since(start)+last/2 < d; {
		t0 := time.Now()
		op()
		last = time.Since(t0)
	}
}

// latencyMetrics sets the op latency quantiles from per-op times in ms.
func latencyMetrics(res *result, msecs []float64) {
	res.set("op_ms_p50", quantile(msecs, 0.5))
	res.set("op_ms_p75", quantile(msecs, 0.75))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// setupMedian runs setup setupRuns times and returns the median seconds.
func setupMedian(setup func(i int) (time.Duration, error)) (float64, error) {
	times := make([]float64, setupRuns)
	for i := range times {
		d, err := setup(i)
		if err != nil {
			return 0, err
		}
		times[i] = d.Seconds()
	}
	// Later set-ups must not pay for the garbage of earlier ones, and
	// the timed phase's resident-memory peak must not include it.
	runtime.GC()
	debug.FreeOSMemory()
	return quantile(times, 0.5), nil
}

// rssSampler tracks peak resident memory while it runs. Linux reports
// the resident set in /proc/self/statm; elsewhere the Go runtime's
// mapped-and-not-released total stands in.
type rssSampler struct {
	peak atomic.Int64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v := residentBytes()
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stopMiB ends sampling and returns the peak in MiB.
func (s *rssSampler) stopMiB() float64 {
	s.sample()
	close(s.stop)
	s.wg.Wait()
	return float64(s.peak.Load()) / (1 << 20)
}

func residentBytes() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	sm := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(sm)
	return int64(sm[0].Value.Uint64() - sm[1].Value.Uint64())
}

// allocMeter measures heap allocation and GC cycles over a phase.
type allocMeter struct{ alloc, gc uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.TotalAlloc, uint64(ms.NumGC)}
}

// report sets the runtime per-op metrics for ops operations since start.
func (a allocMeter) report(res *result, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.layer("runtime.alloc_kib_per_op", float64(ms.TotalAlloc-a.alloc)/1024/float64(ops))
	res.layer("runtime.gc_per_op", float64(uint64(ms.NumGC)-a.gc)/float64(ops))
}

// reconcile reports how well the traced rows cover the untraced op time
// and what tracing cost, and fails the run when the rows miss by more
// than unattributedBound.
func reconcile(res *result, rowsMS, untracedMS, tracedMS float64) {
	un := 100 * (untracedMS - rowsMS) / untracedMS
	res.layer("trace.unattributed_pct", un)
	res.layer("trace.overhead_pct", 100*(tracedMS-untracedMS)/untracedMS)
	res.report["trace_rows_ms"] = rowsMS
	res.report["trace_untraced_op_ms"] = untracedMS
	res.check(math.Abs(un) <= unattributedBound,
		"traced rows cover %.1f ms of a %.1f ms untraced op (%.1f%% unattributed, bound %d%%)",
		rowsMS, untracedMS, un, unattributedBound)
}
