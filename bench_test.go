// Benchmark harness: one benchmark per evaluation artifact of the paper.
//
//	go test -bench=Table1 -benchmem     # Table 1 rows (all four detectors)
//	go test -bench=Figure -benchmem     # Figures 5, 9, 10
//	go test -bench=Micro -benchmem      # substrate micro-benchmarks
//
// Heavy state (benchmark data, trained detectors) is built once on first
// use and shared across benchmarks; the timed loops measure the detection
// paths the paper's Time columns report. Accuracy and false-alarm counts
// are attached to each benchmark via ReportMetric (units acc% and FA),
// and the assembled Table 1 / Figure 10 text is printed once so a bench
// run regenerates the artifacts directly.
package rhsd

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"rhsd/internal/baseline/fasterrcnn"
	"rhsd/internal/baseline/ssd"
	"rhsd/internal/baseline/tcad"
	"rhsd/internal/dataset"
	"rhsd/internal/dct"
	"rhsd/internal/eval"
	"rhsd/internal/geom"
	"rhsd/internal/hsd"
	"rhsd/internal/litho"
	"rhsd/internal/metrics"
	"rhsd/internal/parallel"
	"rhsd/internal/tensor"
	"rhsd/internal/viz"
)

// TestParallelDetectSpeedupGuard fails when the parallel compute engine
// stops pulling its weight: full-region detection with a NumCPU-sized
// worker pool must be at least 1.5× faster than the serial path on
// machines with 4+ cores. A future PR that accidentally serialises the
// hot path (a lock in Gemm, a dropped parallel.For) trips this before it
// lands. Skipped on small machines, where the floor is not meaningful.
func TestParallelDetectSpeedupGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("speed measurement skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥4 CPUs for a meaningful speedup floor, have %d", runtime.NumCPU())
	}
	c := hsd.TinyConfig()
	c.InputSize = 128 // big enough that goroutine overhead is noise
	m, err := hsd.NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := tensor.New(1, hsd.InputChannels, c.InputSize, c.InputSize)
	x.RandUniform(rng, 0, 1)
	m.Detect(x) // warm up allocator and caches before timing

	bestOf := func(iters int, f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < iters; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	prev := parallel.SetWorkers(1)
	serial := bestOf(3, func() { m.Detect(x) })
	parallel.SetWorkers(runtime.NumCPU())
	par := bestOf(3, func() { m.Detect(x) })
	parallel.SetWorkers(prev)

	speedup := float64(serial) / float64(par)
	t.Logf("serial %v, parallel %v (%d workers): speedup %.2fx", serial, par, runtime.NumCPU(), speedup)
	if speedup < 1.5 {
		t.Fatalf("parallel Detect speedup %.2fx < 1.5x floor (serial %v, parallel %v on %d CPUs) — hot path may have been serialised",
			speedup, serial, par, runtime.NumCPU())
	}
}

// benchProfile shrinks the fast profile so the one-time training setup
// stays within a few minutes of CPU time for the whole bench run.
func benchProfile() eval.Profile {
	p := eval.FastProfile()
	p.NTrain, p.NTest = 8, 6
	p.HSD.TrainSteps = benchOursSteps
	p.TCAD.TrainSteps = 400
	p.FRCNN.TrainSteps = 500
	p.SSD.TrainSteps = 500
	return p
}

const (
	benchOursSteps     = 1200
	benchAblationSteps = 500
)

// table1State lazily trains all four detectors and caches their outcomes.
var table1State struct {
	once  sync.Once
	p     eval.Profile
	data  *eval.Data
	tcad  *tcad.Detector
	frcnn *fasterrcnn.Detector
	ssd   *ssd.Detector
	ours  *hsd.Model
	table *metrics.Table
	err   error
}

func table1Setup(b *testing.B) {
	table1State.once.Do(func() {
		p := benchProfile()
		table1State.p = p
		fmt.Fprintln(os.Stderr, "[bench] generating benchmark cases...")
		data := eval.LoadData(p)
		table1State.data = data
		clipNM := p.HSD.ClipNM()

		fmt.Fprintln(os.Stderr, "[bench] training TCAD'18...")
		table1State.tcad = tcad.New(p.TCAD)
		table1State.tcad.Train(data.MergedTrain)
		fmt.Fprintln(os.Stderr, "[bench] training Faster R-CNN...")
		table1State.frcnn = fasterrcnn.New(p.FRCNN)
		table1State.frcnn.Train(data.MergedTrain, clipNM)
		fmt.Fprintln(os.Stderr, "[bench] training SSD...")
		table1State.ssd = ssd.New(p.SSD)
		table1State.ssd.Train(data.MergedTrain, clipNM)
		fmt.Fprintf(os.Stderr, "[bench] training Ours (%d steps)...\n", p.HSD.TrainSteps)
		table1State.ours, table1State.err = eval.TrainOurs(p.HSD, data.MergedTrain, nil)
		if table1State.err != nil {
			return
		}

		tbl := &metrics.Table{Detectors: []string{eval.DetTCAD, eval.DetFRCNN, eval.DetSSD, eval.DetOurs}}
		for _, ds := range data.Cases {
			tbl.AddRow(ds.Name, eval.DetTCAD, table1State.tcad.Evaluate(ds.Test))
			tbl.AddRow(ds.Name, eval.DetFRCNN, table1State.frcnn.Evaluate(ds.Test, clipNM))
			tbl.AddRow(ds.Name, eval.DetSSD, table1State.ssd.Evaluate(ds.Test, clipNM))
			tbl.AddRow(ds.Name, eval.DetOurs, eval.EvalOurs(table1State.ours, ds.Test))
		}
		table1State.table = tbl
		fmt.Fprintln(os.Stderr, "\nTable 1 — comparison with state-of-the-art (bench profile)")
		fmt.Fprintln(os.Stderr, tbl.Render(eval.DetTCAD))
	})
	if table1State.err != nil {
		b.Fatal(table1State.err)
	}
}

// reportRow attaches a detector's cached accuracy/FA to the benchmark.
func reportRow(b *testing.B, det string) {
	var acc, fa float64
	n := 0
	for _, r := range table1State.table.Rows {
		if r.Detector == det {
			acc += r.Outcome.Accuracy() * 100
			fa += float64(r.Outcome.FalseAlarms)
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(acc/float64(n), "acc%")
		b.ReportMetric(fa/float64(n), "FA/case")
	}
}

// BenchmarkTable1OursDetect measures the paper's Time column for the
// region-based detector: one full-region detection pass.
func BenchmarkTable1OursDetect(b *testing.B) {
	table1Setup(b)
	r := table1State.data.Cases[0].Test[0]
	sample := hsd.MakeSample(r.Layout, nil, table1State.ours.Config)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table1State.ours.Detect(sample.Raster)
	}
	b.StopTimer()
	reportRow(b, eval.DetOurs)
}

// BenchmarkTable1TCADDetect measures the conventional sliding-window scan
// over the same region.
func BenchmarkTable1TCADDetect(b *testing.B) {
	table1Setup(b)
	r := table1State.data.Cases[0].Test[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table1State.tcad.DetectRegion(r)
	}
	b.StopTimer()
	reportRow(b, eval.DetTCAD)
}

// BenchmarkTable1FasterRCNNDetect measures the generic two-stage baseline.
func BenchmarkTable1FasterRCNNDetect(b *testing.B) {
	table1Setup(b)
	r := table1State.data.Cases[0].Test[0]
	clipNM := table1State.p.HSD.ClipNM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table1State.frcnn.DetectRegion(r, clipNM)
	}
	b.StopTimer()
	reportRow(b, eval.DetFRCNN)
}

// BenchmarkTable1SSDDetect measures the generic one-stage baseline.
func BenchmarkTable1SSDDetect(b *testing.B) {
	table1Setup(b)
	r := table1State.data.Cases[0].Test[0]
	clipNM := table1State.p.HSD.ClipNM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table1State.ssd.DetectRegion(r, clipNM)
	}
	b.StopTimer()
	reportRow(b, eval.DetSSD)
}

// figure10State lazily trains the four ablation variants.
var figure10State struct {
	once     sync.Once
	variants []eval.AblationVariant
	models   map[string]*hsd.Model
	sample   *tensor.Tensor
	err      error
}

func figure10Setup(b *testing.B) {
	table1Setup(b) // reuse the generated data
	figure10State.once.Do(func() {
		p := table1State.p
		p.HSD.TrainSteps = benchAblationSteps
		figure10State.models = map[string]*hsd.Model{}
		variants := eval.AblationVariants(p.HSD)
		for vi := range variants {
			v := &variants[vi]
			fmt.Fprintf(os.Stderr, "[bench] training ablation variant %q (%d steps)...\n",
				v.Name, v.Config.TrainSteps)
			m, err := eval.TrainOurs(v.Config, table1State.data.MergedTrain, nil)
			if err != nil {
				figure10State.err = err
				return
			}
			figure10State.models[v.Name] = m
			var accSum, faSum float64
			for _, ds := range table1State.data.Cases {
				o := eval.EvalOurs(m, ds.Test)
				accSum += o.Accuracy() * 100
				faSum += float64(o.FalseAlarms)
			}
			v.Accuracy = accSum / float64(len(table1State.data.Cases))
			v.FA = faSum / float64(len(table1State.data.Cases))
		}
		figure10State.variants = variants
		r := table1State.data.Cases[0].Test[0]
		figure10State.sample = hsd.MakeSample(r.Layout, nil, p.HSD).Raster
		fmt.Fprintln(os.Stderr)
		fmt.Fprintln(os.Stderr, eval.RenderFigure10(variants))
	})
	if figure10State.err != nil {
		b.Fatal(figure10State.err)
	}
}

func benchAblationVariant(b *testing.B, name string) {
	figure10Setup(b)
	m := figure10State.models[name]
	if m == nil {
		b.Fatalf("variant %q missing", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Detect(figure10State.sample)
	}
	b.StopTimer()
	for _, v := range figure10State.variants {
		if v.Name == name {
			b.ReportMetric(v.Accuracy, "acc%")
			b.ReportMetric(v.FA, "FA/case")
		}
	}
}

// BenchmarkFigure10 covers the four ablation bars of Figure 10.
func BenchmarkFigure10Full(b *testing.B)     { benchAblationVariant(b, "Full") }
func BenchmarkFigure10NoED(b *testing.B)     { benchAblationVariant(b, "w/o. ED") }
func BenchmarkFigure10NoL2(b *testing.B)     { benchAblationVariant(b, "w/o. L2") }
func BenchmarkFigure10NoRefine(b *testing.B) { benchAblationVariant(b, "w/o. Refine") }

// BenchmarkFigure9Render measures the qualitative detection-map renderer
// on a real trained model's output.
func BenchmarkFigure9Render(b *testing.B) {
	table1Setup(b)
	r := table1State.data.Cases[0].Test[0]
	sample := hsd.MakeSample(r.Layout, nil, table1State.ours.Config)
	dets := table1State.ours.DetectionsNM(table1State.ours.Detect(sample.Raster))
	md := make([]metrics.Detection, len(dets))
	for i, d := range dets {
		md[i] = metrics.Detection{Clip: d.Clip, Score: d.Score}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viz.RenderRegion(r.Layout, r.HotspotPoints(), md, 512)
	}
}

// BenchmarkFigure5 compares h-NMS and conventional NMS on a proposal set
// of realistic size (Figure 5 / Algorithm 1).
func BenchmarkFigure5HNMS(b *testing.B) {
	clips := nmsWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hsd.HNMS(clips, 0.7)
	}
}

func BenchmarkFigure5ConventionalNMS(b *testing.B) {
	clips := nmsWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hsd.ConventionalNMS(clips, 0.7)
	}
}

func nmsWorkload() []hsd.ScoredClip {
	rng := rand.New(rand.NewSource(1))
	clips := make([]hsd.ScoredClip, 256)
	for i := range clips {
		clips[i] = hsd.ScoredClip{
			Clip:  geom.RectCWH(rng.Float64()*96, rng.Float64()*96, 10+rng.Float64()*30, 10+rng.Float64()*30),
			Score: rng.Float64(),
		}
	}
	return clips
}

// --- substrate micro-benchmarks -----------------------------------------

func BenchmarkMicroConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(1, 16, 48, 48)
	w := tensor.New(16, 16, 3, 3)
	bias := tensor.New(16)
	x.RandN(rng, 1)
	w.RandN(rng, 1)
	o := tensor.ConvOpts{Kernel: 3, Stride: 1, Padding: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DInfer(nil, x, w, o, tensor.Epilogue{Bias: bias})
	}
}

func BenchmarkMicroLithoSimulate(b *testing.B) {
	spec := dataset.CaseSpecs(768)[0]
	ds := dataset.Generate(spec, litho.DefaultModel(), 1, 0)
	l := ds.Train[0].Layout
	m := litho.DefaultModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Simulate(l, l.Bounds)
	}
}

func BenchmarkMicroRasterize(b *testing.B) {
	spec := dataset.CaseSpecs(768)[0]
	ds := dataset.Generate(spec, litho.DefaultModel(), 1, 0)
	l := ds.Train[0].Layout
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Rasterize(l.Bounds, 8)
	}
}

func BenchmarkMicroDCTFeatureTensor(b *testing.B) {
	img := tensor.New(1, 48, 48)
	for i := range img.Data() {
		if i%3 == 0 {
			img.Data()[i] = 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dct.FeatureTensor(img, 8, 16)
	}
}

func BenchmarkMicroRoIPool(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	feat := tensor.New(1, 32, 12, 12)
	feat.RandN(rng, 1)
	pool := hsd.NewRoIPool(7, 8)
	rois := make([]geom.Rect, 16)
	for i := range rois {
		rois[i] = geom.RectCWH(20+rng.Float64()*50, 20+rng.Float64()*50, 24, 24)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Forward(feat, rois)
	}
}

func BenchmarkMicroAnchorAssign(b *testing.B) {
	c := hsd.TinyConfig()
	c.InputSize = 96
	c.PitchNM = 8
	c.ClipPx = 24
	anchors := hsd.GenerateAnchors(c)
	rng := rand.New(rand.NewSource(3))
	gt := make([]geom.Rect, 6)
	for i := range gt {
		gt[i] = geom.RectCWH(20+rng.Float64()*56, 20+rng.Float64()*56, 24, 24)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hsd.AssignTargets(anchors, gt, c)
	}
}

func BenchmarkMicroTrainStep(b *testing.B) {
	c := hsd.TinyConfig()
	m, err := hsd.NewModel(c)
	if err != nil {
		b.Fatal(err)
	}
	tr := hsd.NewTrainer(m)
	rng := rand.New(rand.NewSource(4))
	img := tensor.New(1, hsd.InputChannels, c.InputSize, c.InputSize)
	img.RandUniform(rng, 0, 1)
	s := hsd.Sample{Raster: img, GT: []geom.Rect{geom.RectCWH(32, 32, c.ClipPx, c.ClipPx)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(s)
	}
}
