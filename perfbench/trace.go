package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"rhsd/internal/geom"
	"rhsd/internal/hsd"
	"rhsd/internal/layout"
	"rhsd/internal/nn"
	"rhsd/internal/tensor"
)

// This file holds the traced run's machinery. Detect, the megatile scan
// and the HTTP handler are each one public call, so the traced run
// replays an op as the public steps those calls are made of and records
// one span around each step; per-layer times are span self times. The
// replay must reproduce the untraced op's detections bit for bit, which
// is checked, so the rows describe the same work the headline timed.

// span is one call into a layer, timed from the benchmark's side.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index into the recorder's spans, -1 for an op root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps every span in memory; dump writes them when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) start(name string, op, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// merge appends o's spans, which share r's time origin.
func (r *recorder) merge(o *recorder) {
	base := len(r.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes sums each span name's self time (duration minus the time its
// children cover) and counts its spans.
func (r *recorder) selfTimes() (ns map[string]float64, count map[string]int) {
	self := make([]float64, len(r.spans))
	for i, s := range r.spans {
		self[i] += float64(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= float64(s.End - s.Start)
		}
	}
	ns, count = map[string]float64{}, map[string]int{}
	for i, s := range r.spans {
		ns[s.Name] += self[i]
		count[s.Name]++
	}
	return ns, count
}

func (r *recorder) dump(path string) error {
	if path == "" {
		return nil
	}
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// replayer runs one detection pass as the public steps of Model.Detect.
// The fp32 trunk runs stage by stage on a workspace the benchmark owns;
// the int8 trunk is one Model.InferBase span, because its quantizer is
// private to hsd.
type replayer struct {
	m      *hsd.Model
	ws     *tensor.Workspace
	rec    *recorder
	passes int
	rois   int
}

func newReplayer(m *hsd.Model, rec *recorder) (*replayer, error) {
	c := m.Config
	if !c.UseRefine || c.RefineIterations > 1 || c.ConventionalNMS {
		return nil, fmt.Errorf("replay supports the paper's single refinement pass with h-NMS only")
	}
	return &replayer{m: m, ws: tensor.NewWorkspace(), rec: rec}, nil
}

// detect replays Detect on one raster; its result equals m.Detect(x).
func (r *replayer) detect(op, parent int, x *tensor.Tensor) []hsd.Detection {
	m, rec, c := r.m, r.rec, r.m.Config
	r.passes++
	var out *hsd.BaseOutput
	if m.Precision() == hsd.PrecisionInt8 {
		sp := rec.start("hsd.trunk", op, parent)
		out = m.InferBase(x)
		rec.end(sp)
	} else {
		// RefineInfer draws from the model's own workspace, which only
		// InferBase resets; recycle it here so replays do not grow it.
		m.TrimWorkspace(math.MaxInt)
		r.ws.Reset()
		trunk := rec.start("hsd.trunk", op, parent)
		sp := rec.start("hsd.backbone", op, trunk)
		fine := m.Stem.Infer(x, r.ws)
		feat := m.Backbone.Infer(fine, r.ws)
		rec.end(sp)
		sp = rec.start("hsd.encdec", op, trunk)
		feat = m.EncDec.Infer(feat, r.ws)
		rec.end(sp)
		sp = rec.start("hsd.inception", op, trunk)
		feat = m.Inception.Infer(feat, r.ws)
		rec.end(sp)
		sp = rec.start("hsd.cpn", op, trunk)
		t := m.RPNTrunk.Infer(feat, r.ws)
		out = &hsd.BaseOutput{Feat: feat, FineFeat: fine, ClsMap: m.RPNCls.Infer(t, r.ws), RegMap: m.RPNReg.Infer(t, r.ws)}
		rec.end(sp)
		rec.end(trunk)
	}
	sp := rec.start("hsd.proposals", op, parent)
	props := m.Proposals(out)
	rec.end(sp)
	r.rois += len(props)
	if len(props) == 0 {
		return nil
	}
	rois := make([]geom.Rect, len(props))
	for i, p := range props {
		rois[i] = p.Clip
	}
	sp = rec.start("hsd.refine", op, parent)
	cls, reg := m.RefineInfer(out, rois)
	rec.end(sp)

	sp = rec.start("hsd.decode", op, parent)
	bounds := geom.Rect{X1: float64(x.Dim(3)), Y1: float64(x.Dim(2))}
	var scored []hsd.ScoredClip
	for i, roi := range rois {
		score := sigmoidDiff(cls.At(i, 1), cls.At(i, 0))
		enc := geom.BoxEncoding{
			LX: float64(reg.At(i, 0)), LY: float64(reg.At(i, 1)),
			LW: float64(reg.At(i, 2)), LH: float64(reg.At(i, 3)),
		}
		box := geom.Decode(enc, roi).Clip(bounds)
		if box.W() < 2 || box.H() < 2 || score < c.ScoreThreshold {
			continue
		}
		scored = append(scored, hsd.ScoredClip{Clip: box, Score: score})
	}
	final := hsd.HNMS(scored, c.NMSThreshold)
	rec.end(sp)
	dets := make([]hsd.Detection, len(final))
	for i, s := range final {
		dets[i] = hsd.Detection{Clip: s.Clip, Score: s.Score}
	}
	return dets
}

// sigmoidDiff is hsd's two-logit hotspot probability σ(l1 − l0), with
// the same float32 subtraction and exp clamp.
func sigmoidDiff(l1, l0 float32) float64 {
	d := float64(l1 - l0)
	if d > 40 {
		return 1
	}
	if d < -40 {
		d = -40
	}
	return 1 / (1 + math.Exp(-d))
}

// scanGrid is the factor-f megatile grid of DetectLayoutMegatile over a
// window: megatile origins and the seam ownership boundaries.
type scanGrid struct {
	spec   hsd.MegatileSpec
	window layout.Rect
	xs, ys []int
	xb, yb []float64
	slack  float64
}

func newScanGrid(c hsd.Config, window layout.Rect, factor int) scanGrid {
	window = window.Canon()
	spec := c.Megatile(factor)
	g := scanGrid{spec: spec, window: window, slack: float64(c.HaloNM()) / 2}
	g.xs = tileOrigins(window.X0, window.X1, spec.RegionNM, spec.StrideNM)
	g.ys = tileOrigins(window.Y0, window.Y1, spec.RegionNM, spec.StrideNM)
	g.xb = seamBoundaries(g.xs, spec.RegionNM)
	g.yb = seamBoundaries(g.ys, spec.RegionNM)
	return g
}

// tileOrigins covers [lo, hi) with region-wide tiles at the given stride,
// the last one clamped to end at hi.
func tileOrigins(lo, hi, region, stride int) []int {
	if hi-lo <= region {
		return []int{lo}
	}
	var out []int
	for p := lo; ; p += stride {
		if p+region >= hi {
			return append(out, hi-region)
		}
		out = append(out, p)
	}
}

// seamBoundaries are the midpoints of the overlap strips between
// consecutive megatiles.
func seamBoundaries(origins []int, region int) []float64 {
	b := make([]float64, len(origins)-1)
	for i := range b {
		b[i] = float64(origins[i+1]+origins[i]+region) / 2
	}
	return b
}

// keptBy reports whether a clip centre v belongs to megatile i, whose
// ownership interval is widened by the slack band.
func keptBy(boundaries []float64, v float64, i int, slack float64) bool {
	if i > 0 && v < boundaries[i-1]-slack {
		return false
	}
	return i >= len(boundaries) || v < boundaries[i]+slack
}

// replayScan replays DetectLayoutMegatile serially: per megatile
// Layout.Window, hsd.RegionRaster and the Detect steps, then the
// ownership filter, then one hsd.HNMS merge over every megatile's clips.
func (r *replayer) replayScan(op, root int, l *layout.Layout, g scanGrid) []hsd.Detection {
	rec, c := r.rec, r.m.Config
	var all []hsd.ScoredClip
	for iy, y := range g.ys {
		for ix, x := range g.xs {
			mt := rec.start("megatile", op, root)
			sp := rec.start("layout.window", op, mt)
			sub := l.Window(layout.R(x, y, x+g.spec.RegionNM, y+g.spec.RegionNM))
			rec.end(sp)
			sp = rec.start("layout.raster", op, mt)
			raster := hsd.RegionRaster(sub, c, g.spec.PxSize)
			rec.end(sp)
			for _, d := range r.detect(op, mt, raster) {
				scaled := d.Clip.Scale(c.PitchNM)
				abs := scaled.Translate(float64(x), float64(y))
				if !keptBy(g.xb, abs.CX(), ix, g.slack) || !keptBy(g.yb, abs.CY(), iy, g.slack) {
					continue
				}
				win := scaled.Translate(float64(x-g.window.X0), float64(y-g.window.Y0))
				all = append(all, hsd.ScoredClip{Clip: win, Score: d.Score})
			}
			rec.end(mt)
		}
	}
	sp := rec.start("hsd.merge", op, root)
	merged := hsd.HNMS(all, c.NMSThreshold)
	rec.end(sp)
	out := make([]hsd.Detection, len(merged))
	for i, s := range merged {
		out[i] = hsd.Detection{Clip: s.Clip, Score: s.Score}
	}
	return out
}

// gemmShape is one convolution's GEMM lowering: M output channels,
// K = input channels × kernel², N output pixels.
type gemmShape struct{ M, K, N int }

func (s gemmShape) flop() float64 { return 2 * float64(s.M) * float64(s.K) * float64(s.N) }

// convShapes walks a layer tree from an input of c channels and h×w
// pixels, appending each conv's and deconv's GEMM lowering. It returns
// the output channels and size.
func convShapes(l nn.Layer, c, h, w int, out *[]gemmShape) (int, int, int) {
	switch l := l.(type) {
	case *nn.Sequential:
		for _, sub := range l.Layers {
			c, h, w = convShapes(sub, c, h, w, out)
		}
		return c, h, w
	case *nn.ConcatBranches:
		total, oh, ow := 0, h, w
		for _, b := range l.Branches {
			var bc int
			bc, oh, ow = convShapes(b, c, h, w, out)
			total += bc
		}
		return total, oh, ow
	case *nn.Conv2D:
		oh, ow := l.Opts.OutDim(h), l.Opts.OutDim(w)
		*out = append(*out, gemmShape{l.Out, l.In * l.Opts.Kernel * l.Opts.Kernel, oh * ow})
		return l.Out, oh, ow
	case *nn.Deconv2D:
		o := l.Opts
		oh, ow := (h-1)*o.Stride-2*o.Padding+o.Kernel, (w-1)*o.Stride-2*o.Padding+o.Kernel
		*out = append(*out, gemmShape{l.Out * o.Kernel * o.Kernel, l.In, h * w})
		return l.Out, oh, ow
	case *nn.MaxPool2D:
		return c, (h-l.Kernel)/l.Stride + 1, (w-l.Kernel)/l.Stride + 1
	}
	return c, h, w
}

// trunkShapes lists the GEMM lowerings of one InferBase pass on a px×px
// raster: stem, backbone, encoder-decoder, inception chain and CPN.
func trunkShapes(m *hsd.Model, px int) []gemmShape {
	var shapes []gemmShape
	c, h, w := hsd.InputChannels, px, px
	for _, l := range []nn.Layer{m.Stem, m.Backbone, m.EncDec, m.Inception, m.RPNTrunk} {
		c, h, w = convShapes(l, c, h, w, &shapes)
	}
	convShapes(m.RPNCls, c, h, w, &shapes)
	convShapes(m.RPNReg, c, h, w, &shapes)
	return shapes
}

// dominantShape is the lowering with the most flops.
func dominantShape(shapes []gemmShape) gemmShape {
	best := shapes[0]
	for _, s := range shapes[1:] {
		if s.flop() > best.flop() {
			best = s
		}
	}
	return best
}

// kernelRate times fn (one call = flop operations) in batches of about
// 50 ms and returns the median batch rate in G operations per second.
func kernelRate(flop float64, fn func()) float64 {
	fn()
	n := 1
	for t0 := time.Now(); time.Since(t0) < 50*time.Millisecond; n++ {
		fn()
	}
	rates := make([]float64, 7)
	for b := range rates {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		rates[b] = flop * float64(n) / float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(rates)
	return rates[len(rates)/2]
}

// gemmPeak measures tensor.Gemm at the shape, in GF/s.
func gemmPeak(s gemmShape) float64 {
	a, b, c := make([]float32, s.M*s.K), make([]float32, s.K*s.N), make([]float32, s.M*s.N)
	for i := range a {
		a[i] = float32(i%17) * 0.25
	}
	for i := range b {
		b[i] = float32(i%13) * 0.5
	}
	return kernelRate(s.flop(), func() { tensor.Gemm(false, false, s.M, s.N, s.K, 1, a, b, 0, c) })
}

// qgemmPeak measures tensor.QGemmInt8 at the shape, in G int8 ops/s
// (two per multiply-add, like flops).
func qgemmPeak(s gemmShape) float64 {
	aq, bq, c := make([]int8, s.M*s.K), make([]uint8, s.K*s.N), make([]float32, s.M*s.N)
	for i := range aq {
		aq[i] = int8(i%17 - 8)
	}
	for i := range bq {
		bq[i] = uint8(i % 251)
	}
	deq, corr := make([]float32, s.M), make([]int32, s.M)
	for r := range deq {
		deq[r] = 0.01
		var sum int32
		for _, v := range aq[r*s.K : (r+1)*s.K] {
			sum += int32(v)
		}
		corr[r] = 128 * sum
	}
	return kernelRate(s.flop(), func() { tensor.QGemmInt8(s.M, s.N, s.K, aq, bq, deq, corr, c) })
}

// refineShape is the refinement trunk's per-RoI 3×3 conv lowering: an
// inception branch conv on the pooled RoI after module B halves it.
func refineShape(c hsd.Config) gemmShape {
	side := (c.RoISize + 1) / 2
	return gemmShape{c.InceptionWidth, 9 * c.InceptionWidth, side * side}
}

// kernelMetrics measures the GEMM peaks and the trunk's flop count; with
// trunkMS > 0 it also reports the trunk's achieved share of the peak of
// the precision it ran in.
func kernelMetrics(res *result, m *hsd.Model, px int, trunkMS float64) {
	shapes := trunkShapes(m, px)
	var gflop float64
	for _, s := range shapes {
		gflop += s.flop() / 1e9
	}
	dom := dominantShape(shapes)
	gemm := gemmPeak(dom)
	qgemm := qgemmPeak(dom)
	res.layer("tensor.gemm_gflops", gemm)
	res.layer("tensor.qgemm_gops", qgemm)
	res.layer("tensor.refine_gemm_gflops", gemmPeak(refineShape(m.Config)))
	res.layer("tensor.trunk_gflop", gflop)
	if trunkMS > 0 {
		peak := gemm
		if m.Precision() == hsd.PrecisionInt8 {
			peak = qgemm
		}
		res.layer("tensor.trunk_peak_frac", gflop/(trunkMS/1e3)/peak)
	}
	res.report["dominant_gemm_shape_mkn"] = []int{dom.M, dom.K, dom.N}
}

// profileCalls snapshots tensor's stage counters as call counts by stage.
func profileCalls() map[string]int64 {
	out := map[string]int64{}
	for _, e := range tensor.ProfileSnapshot() {
		out[e.Stage] = e.Calls
	}
	return out
}

// tensorCallMetrics reports the kernel-class calls made since before,
// per pass.
func tensorCallMetrics(res *result, before map[string]int64, passes int) {
	after := profileCalls()
	per := func(stage string) float64 { return float64(after[stage]-before[stage]) / float64(passes) }
	res.layer("tensor.packed_calls", per("gemm_packed"))
	res.layer("tensor.qgemm_calls", per("qgemm"))
	res.layer("tensor.rows_calls", per("gemm_rows"))
}
