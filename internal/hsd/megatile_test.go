package hsd

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rhsd/internal/layout"
	"rhsd/internal/parallel"
)

// ---- layout-space synthetic hotspots ----
//
// The raster-space syntheticSample of train_test.go cannot exercise the
// scan paths, which rasterize layouts themselves. These helpers plant a
// hotspot signature as axis-aligned metal on the nanometre grid, so one
// big layout can be scanned at several megatile factors and the planted
// ground truth compared across them.

// plantBlob adds an 11×11-pixel solid metal square centred at (cxNM,
// cyNM) — the layout-space hotspot signature. The square is aligned to
// the pixel grid, so the blob rasters identically under every window
// whose origin is a multiple of the pitch, which is what makes
// cross-scan comparisons meaningful.
func plantBlob(l *layout.Layout, cxNM, cyNM int, c Config) {
	p := int(c.PitchNM)
	l.Add(layout.R(cxNM-5*p, cyNM-5*p, cxNM+6*p, cyNM+6*p))
}

// addStripes lays the sparse background texture: one-pixel-high
// horizontal metal lines every eight pixels across the layout bounds.
func addStripes(l *layout.Layout, c Config) {
	p := int(c.PitchNM)
	for y := l.Bounds.Y0; y < l.Bounds.Y1; y += 8 * p {
		l.Add(layout.R(l.Bounds.X0, y, l.Bounds.X1, y+p))
	}
}

// synthLayoutSampleSized is syntheticSample rebuilt from layout geometry
// at an arbitrary raster size: a px×px layout with background stripes
// and nHot planted blobs, rasterized through the production
// MakeSampleSized path. Mixing sizes across a training set is what
// teaches the model both the single-region and the megatile raster
// context (DESIGN.md §11).
func synthLayoutSampleSized(rng *rand.Rand, c Config, px, nHot int) Sample {
	p := int(c.PitchNM)
	l := layout.New(layout.R(0, 0, px*p, px*p))
	addStripes(l, c)
	var hs [][2]float64
	for i := 0; i < nHot; i++ {
		// Margin 8 px keeps the blob inside the raster but lets it hug the
		// border the way seam hotspots hug a megatile edge.
		cx := (8 + rng.Intn(px-16)) * p
		cy := (8 + rng.Intn(px-16)) * p
		plantBlob(l, cx, cy, c)
		hs = append(hs, [2]float64{float64(cx), float64(cy)})
	}
	return MakeSampleSized(l, hs, c, px)
}

// scanModel caches one model trained on layout-space synthetic hotspots
// at both the nominal and the factor-2 megatile raster size, shared by
// every megatile test in the package (training dominates their cost;
// detection never mutates results, see
// TestCloneProducesIdenticalDetections).
var scanModel struct {
	once sync.Once
	m    *Model
	err  error
}

func trainedScanModel(t *testing.T) *Model {
	t.Helper()
	if testing.Short() {
		t.Skip("trained-model megatile tests skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("training exceeds the -race timeout; megatile concurrency is covered by the random-weight parity tests")
	}
	scanModel.once.Do(func() {
		c := TinyConfig()
		c.TrainSteps = 700
		c.BatchAnchors = 96
		c.ScoreThreshold = 0.15
		// The 700-step toy training is chaotically seed-sensitive: most
		// (seed, numerics) basins give a model that finds the planted
		// blobs with a wide score margin, a few give one that finds
		// almost nothing (the default TinyConfig seed collapsed from 11
		// detections to 1 under an ulp-level change in GEMM summation
		// grouping, and under +300 extra train steps with unchanged
		// numerics). Seed+1 was measured to land in a broad basin — 6/8
		// planted seam blobs found, stable across both row-kernel and
		// packed small-shape GEMM routing — which is what keeps the
		// non-vacuity assertions in the seam tests meaningful.
		c.Seed++
		m, err := NewModel(c)
		if err != nil {
			scanModel.err = err
			return
		}
		rng := rand.New(rand.NewSource(c.Seed))
		var samples []Sample
		for i := 0; i < 3; i++ {
			samples = append(samples, synthLayoutSampleSized(rng, c, c.InputSize, 1+i%2))
		}
		for i := 0; i < 3; i++ {
			samples = append(samples, synthLayoutSampleSized(rng, c, 2*c.InputSize, 2+i%2))
		}
		NewTrainer(m).Run(samples, nil)
		scanModel.m = m
	})
	if scanModel.err != nil {
		t.Fatal(scanModel.err)
	}
	return scanModel.m
}

// detsAt returns the detections whose clip core contains (cx, cy).
func detsAt(dets []Detection, cx, cy float64) []Detection {
	var out []Detection
	for _, d := range dets {
		if d.Clip.Core().Contains(cx, cy) {
			out = append(out, d)
		}
	}
	return out
}

// twoMegatileWindow returns a square window size holding exactly 2×2
// factor-2 megatiles at the design overlap (no clamped ragged tile), so
// the seam geometry is the nominal one: origins {0, StrideNM}, ownership
// boundary at (StrideNM+RegionNM)/2 on each axis.
func twoMegatileWindow(c Config) (size int, seam float64) {
	spec := c.Megatile(2)
	size = 2*spec.RegionNM - spec.OverlapNM
	seam = float64(spec.StrideNM+spec.RegionNM) / 2
	return size, seam
}

// oracleScan is an independent reimplementation of the 2×2 factor-2
// megatile scan, written directly from the DESIGN.md §11 rules rather
// than sharing DetectLayoutMegatile's plumbing: raster each megatile
// window once, detect with a plain single-raster Detect call, translate
// to window coordinates, keep a clip iff its centre falls on the
// megatile's side of the seam midpoint or within the boundary slack band
// around it, then h-NMS the row-major concatenation.
type oracleScan struct {
	final []Detection
	// raw holds each megatile's detections in window coordinates BEFORE
	// ownership filtering, indexed row-major (iy*2+ix) — the evidence for
	// duplicate suppression at seams.
	raw [4][]Detection
}

// oracleKeeps mirrors the expanded-ownership rule for the 2×2 geometry:
// quadrant index 0 keeps centres below seam+slack, index 1 keeps centres
// at or above seam−slack.
func oracleKeeps(v, seam, slack float64, idx int) bool {
	if idx == 0 {
		return v < seam+slack
	}
	return v >= seam-slack
}

func megatileOracle(m *Model, l *layout.Layout) oracleScan {
	c := m.Config
	W, seam := twoMegatileWindow(c)
	slack := float64(c.HaloNM()) / 2
	mega := 2 * c.RegionNM()
	origins := []int{0, W - mega}
	var o oracleScan
	var all []ScoredClip
	for iy, y := range origins {
		for ix, x := range origins {
			sub := l.Window(layout.R(x, y, x+mega, y+mega))
			raster := RegionRaster(sub, c, 2*c.InputSize)
			for _, d := range m.Detect(raster) {
				clip := d.Clip.Scale(c.PitchNM).Translate(float64(x), float64(y))
				o.raw[iy*2+ix] = append(o.raw[iy*2+ix], Detection{Clip: clip, Score: d.Score})
				if oracleKeeps(clip.CX(), seam, slack, ix) && oracleKeeps(clip.CY(), seam, slack, iy) {
					all = append(all, ScoredClip{Clip: clip, Score: d.Score})
				}
			}
		}
	}
	for _, s := range m.nms(all) {
		o.final = append(o.final, Detection{Clip: s.Clip, Score: s.Score})
	}
	return o
}

// TestMegatileInteriorEquivalence is the single-pass parity guard: the
// production megatile scan — with its shared worker pool, per-replica
// workspace reuse across megatiles, window extraction and coordinate
// translation — must reproduce the independent oracle bit-exactly
// (tolerance zero), for untrained weights at a permissive threshold so
// detections land everywhere, interiors included. Equivalence across
// factors is exact only in the degenerate one-region geometry
// (TestMegatileDegenerateWindowsMatchPerTile); at factor ≥ 2 interior
// clips are computed from rasters with different border distances than
// at factor 1, which perturbs features over the network's receptive
// field (the bit-identity caveat of DESIGN.md §11), so cross-factor
// agreement is a property of the trained model, not of the scan
// machinery pinned here.
func TestMegatileInteriorEquivalence(t *testing.T) {
	c := TinyConfig()
	// Untrained refine rejects nearly everything; CPN-only scoring keeps
	// sigmoid(~0) ≈ 0.5 candidates, flooding every megatile with
	// detections so the parity covers interiors, strips and seams alike.
	c.UseRefine = false
	c.ScoreThreshold = 0.45
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	W, seam := twoMegatileWindow(c)

	// Interior spots: ≥200 nm from the window border and from the megatile
	// seam lines on both axes (halo is 96 nm at TinyConfig).
	spots := [][2]int{{400, 400}, {2400, 520}, {620, 2350}, {2250, 2250}, {980, 1800}}
	l := layout.New(layout.R(0, 0, W, W))
	addStripes(l, c)
	for _, s := range spots {
		plantBlob(l, s[0], s[1], c)
		for _, v := range s {
			if d := math.Abs(float64(v) - seam); d < 200 {
				t.Fatalf("spot %v is %v nm from seam %v — not interior", s, d, seam)
			}
		}
	}

	mega := detectAtWorkers(1, func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 2) })
	oracle := megatileOracle(m, l)
	assertSameDetections(t, "megatile scan vs oracle", oracle.final, mega)

	// Non-vacuity: the comparison must cover seam-free interior clips, not
	// just seam traffic.
	interior := 0
	for _, d := range mega {
		dx := math.Abs(d.Clip.CX() - seam)
		dy := math.Abs(d.Clip.CY() - seam)
		if dx > 200 && dy > 200 {
			interior++
		}
	}
	// The halo-ownership rule must also have done real work: raw megatile
	// outputs whose centre lies past the seam midpoint and the slack band
	// are dropped before the merge, which is what keeps overlap-strip
	// clips single-owner.
	dropped := 0
	slack := float64(c.HaloNM()) / 2
	for q := 0; q < 4; q++ {
		ix, iy := q%2, q/2
		for _, d := range oracle.raw[q] {
			if !oracleKeeps(d.Clip.CX(), seam, slack, ix) || !oracleKeeps(d.Clip.CY(), seam, slack, iy) {
				dropped++
			}
		}
	}
	t.Logf("scan: %d detections, %d interior, %d raw clips dropped by ownership", len(mega), interior, dropped)
	if len(mega) == 0 || interior == 0 {
		t.Fatalf("vacuous parity: %d detections, %d interior — lower the threshold", len(mega), interior)
	}
	if dropped == 0 {
		t.Errorf("ownership filter dropped nothing — the seam-dedup path was not exercised")
	}
}

// TestMegatileSeamHotspotReportedOnce is the seam-dedup regression test:
// hotspots planted exactly on megatile seams and on the seam crossing
// sit inside the overlap strip that two (or four) megatiles both
// rasterize, and the halo-ownership rule plus cross-megatile h-NMS must
// collapse the would-be duplicates so each is reported exactly once.
func TestMegatileSeamHotspotReportedOnce(t *testing.T) {
	m := trainedScanModel(t)
	c := m.Config
	W, seamF := twoMegatileWindow(c)
	seam := int(seamF)

	spots := [][2]int{
		{seam, 400},            // centre exactly on the vertical ownership boundary
		{seam + 60, 1000},      // inside the vertical overlap strip
		{400, seam},            // centre exactly on the horizontal boundary
		{1000, seam + 60},      // inside the horizontal overlap strip
		{seam, seam},           // on the boundary crossing
		{seam + 60, seam + 60}, // inside the strip crossing
		{seam, 2400},           // boundary, lower half
		{2400, seam},           // boundary, right half
	}
	l := layout.New(layout.R(0, 0, W, W))
	addStripes(l, c)
	for _, s := range spots {
		plantBlob(l, s[0], s[1], c)
	}

	mega := detectAtWorkers(1, func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 2) })
	oracle := megatileOracle(m, l)
	assertSameDetections(t, "seam scan vs oracle", oracle.final, mega)

	reported := 0
	slack := float64(c.HaloNM()) / 2
	for _, s := range spots {
		cx, cy := float64(s[0]), float64(s[1])
		// The dedup contract: when any megatile detects a seam hotspot with
		// a centre inside its expanded ownership band, the scan reports it
		// — exactly once — no matter how many neighbouring megatiles also
		// detected it inside the overlap strip. (Whether the tiny fixture
		// model detects a given blob at all is a recall property, not a
		// seam property, so all-finders misses are only logged; non-vacuity
		// is asserted below.)
		kept, finders := 0, 0
		for q := 0; q < 4; q++ {
			ds := detsAt(oracle.raw[q], cx, cy)
			if len(ds) > 0 {
				finders++
			}
			for _, d := range ds {
				if oracleKeeps(d.Clip.CX(), seamF, slack, q%2) && oracleKeeps(d.Clip.CY(), seamF, slack, q/2) {
					kept++
				}
			}
		}
		got := detsAt(mega, cx, cy)
		t.Logf("spot %v: %d reports, %d megatiles saw it pre-filter, %d kept by ownership", s, len(got), finders, kept)
		if kept == 0 {
			continue
		}
		reported++
		if len(got) == 0 {
			t.Errorf("spot %v: a megatile detected this seam hotspot inside its ownership band but the scan dropped it", s)
			continue
		}
		// "Exactly once": every report of this hotspot belongs to one
		// cluster — pairwise clip centres within one clip size. A duplicate
		// that survived ownership+NMS would arrive as a second cluster
		// member from the neighbouring megatile; h-NMS guarantees survivors
		// are non-overlapping, so genuine duplicates cannot both persist.
		for i := 0; i < len(got); i++ {
			for j := i + 1; j < len(got); j++ {
				dx := got[i].Clip.CX() - got[j].Clip.CX()
				dy := got[i].Clip.CY() - got[j].Clip.CY()
				if math.Hypot(dx, dy) > c.ClipNM() {
					t.Errorf("spot %v: reported %d times across distinct clusters: %v", s, len(got), got)
				}
			}
		}
	}
	if reported < 2 {
		t.Errorf("only %d seam hotspots were detected by their owning megatile — test is (nearly) vacuous, strengthen the fixture", reported)
	}
}

// TestMegatileDegenerateWindowsMatchPerTile pins the degenerate scan
// geometries bit-exactly: for a window of at most one region the megatile
// scan collapses to one region-sized pass — a single tile rasterized at
// the window origin, no ownership filtering — so it must equal an
// independent reference to the float: Detect on that region's raster,
// scaled to nanometres and merged with h-NMS. This holds for any
// requested factor (the factor cap clamps oversized requests).
func TestMegatileDegenerateWindowsMatchPerTile(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	regionNM := c.RegionNM()
	rng := rand.New(rand.NewSource(11))
	l := layout.New(layout.R(0, 0, regionNM, regionNM))
	for i := 0; i < 60; i++ {
		x := rng.Intn(regionNM - 150)
		y := rng.Intn(regionNM - 150)
		l.Add(layout.R(x, y, x+30+rng.Intn(120), y+30+rng.Intn(120)))
	}
	windows := []layout.Rect{
		l.Bounds, // exactly one region
		layout.R(100, 140, 100+regionNM/2, 140+regionNM/2), // smaller than one region, odd origin
	}
	for _, w := range windows {
		sub := l.Window(layout.R(w.X0, w.Y0, w.X0+regionNM, w.Y0+regionNM))
		var clips []ScoredClip
		for _, d := range m.Detect(MakeSample(sub, nil, c).Raster) {
			clips = append(clips, ScoredClip{Clip: d.Clip.Scale(c.PitchNM), Score: d.Score})
		}
		var want []Detection
		for _, s := range m.nms(clips) {
			want = append(want, Detection{Clip: s.Clip, Score: s.Score})
		}
		for _, factor := range []int{1, 4} {
			got := m.DetectLayoutMegatile(l, w, factor)
			assertSameDetections(t, "degenerate megatile window", want, got)
		}
	}
}

// TestMegatileParityAcrossWorkerCounts extends the bit-identical
// worker-count promise to the megatile scheduler: megatiles are claimed
// from a shared counter but results are merged in megatile order.
func TestMegatileParityAcrossWorkerCounts(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	regionNM := c.RegionNM()
	// Ragged window: clamped final megatiles on both axes.
	big := layout.New(layout.R(0, 0, 3*regionNM+regionNM/3, 2*regionNM+regionNM/5))
	for x := 40; x < big.Bounds.X1-80; x += 150 {
		big.Add(layout.R(x, 30, x+70, big.Bounds.Y1-50))
	}
	serial := detectAtWorkers(1, func() []Detection { return m.DetectLayoutMegatile(big, big.Bounds, 2) })
	par := detectAtWorkers(8, func() []Detection { return m.DetectLayoutMegatile(big, big.Bounds, 2) })
	assertSameDetections(t, "DetectLayoutMegatile", serial, par)
}

// TestMegatileRasterizesWindowOnce is the redundant-raster regression
// guard: the megatile scan rasterizes each layout window exactly once, so
// its total rasterized pixel count is the window area plus only the seam
// overlap strips.
func TestMegatileRasterizesWindowOnce(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	p := int(c.PitchNM)
	spec := c.Megatile(2)
	W, _ := twoMegatileWindow(c)
	l := layout.New(layout.R(0, 0, W, W))
	addStripes(l, c)

	layout.ResetRasterizedPixels()
	detectAtWorkers(1, func() struct{} { m.DetectLayoutMegatile(l, l.Bounds, 2); return struct{}{} })
	megaPx := layout.RasterizedPixels()

	side := int64(W/p + spec.OverlapNM/p) // window side + one seam overlap per axis
	if limit := side * side; megaPx > limit {
		t.Errorf("megatile scan rasterized %d px, want ≤ window + seam overlap = %d", megaPx, limit)
	}
	t.Logf("window %d px², megatile %d px", (W/p)*(W/p), megaPx)
}

// emptyRegionBytes is the workspace, in bytes, that one Detect over an
// empty region draws on a fresh model: the per-region cost
// AutoMegatileFactor budgets with.
func emptyRegionBytes(t *testing.T) int64 {
	m := parityModel(t)
	c := m.Config
	m.Detect(RegionRaster(layout.New(layout.R(0, 0, c.RegionNM(), c.RegionNM())), c, c.InputSize))
	return int64(m.WorkspaceFootprint()) * 4
}

// TestAutoMegatileFactor pins the budget policy: a generous budget picks
// a factor bounded by the window, a tiny budget degrades to 1, and the
// chosen factor's predicted footprint fits the budget.
func TestAutoMegatileFactor(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	window := layout.R(0, 0, 8*c.RegionNM(), 8*c.RegionNM())
	if f := m.AutoMegatileFactor(window, 1); f != 1 {
		t.Errorf("zero-budget factor = %d, want 1", f)
	}
	perRegion := emptyRegionBytes(t)
	budget := perRegion * 20 // room for 4×4 but not 5×5
	f := m.AutoMegatileFactor(window, budget)
	if f < 2 {
		t.Errorf("factor %d under a %d-region budget, want ≥ 2", f, budget/perRegion)
	}
	if got := perRegion * int64(f) * int64(f); got > budget {
		t.Errorf("factor %d predicts %d bytes, over budget %d", f, got, budget)
	}
	// A small window caps the factor regardless of budget.
	small := layout.R(0, 0, c.RegionNM(), c.RegionNM())
	if f := m.AutoMegatileFactor(small, 1<<40); f != 1 {
		t.Errorf("single-region window factor = %d, want 1", f)
	}
}

// TestAutoMegatileFactorIgnoresScanHistory pins that the factor depends
// only on configuration, window and budget: a scan at the auto factor
// grows the model's workspace to megatile size, and the next request for
// the same window must still get the same factor — and so the same
// detections. The grown arena must not enter the sizing.
func TestAutoMegatileFactorIgnoresScanHistory(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	m := parityModel(t)
	c := m.Config
	l := layout.New(layout.R(0, 0, 8*c.RegionNM(), 8*c.RegionNM()))
	addStripes(l, c)
	budget := emptyRegionBytes(t) * 20

	first := m.AutoMegatileFactor(l.Bounds, budget)
	if first < 2 {
		t.Fatalf("factor %d under a 20-region budget, want ≥ 2", first)
	}
	want := m.DetectLayoutMegatile(l, l.Bounds, first)
	again := m.AutoMegatileFactor(l.Bounds, budget)
	if again != first {
		t.Fatalf("auto factor %d after a factor-%d scan, want %d", again, first, first)
	}
	assertSameDetections(t, "scan at the repeated auto factor", want, m.DetectLayoutMegatile(l, l.Bounds, again))
}

// TestTrimWorkspaceAfterMegatile exercises the workspace retention
// story: a megatile pass grows the inference arena to megatile size, and
// TrimWorkspace shrinks it back to the nominal-tile footprint without
// perturbing subsequent detections.
func TestTrimWorkspaceAfterMegatile(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	c := TinyConfig()
	c.UseRefine = false
	c.ScoreThreshold = 0.45
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	s64 := synthLayoutSampleSized(rng, c, c.InputSize, 2)
	s128 := synthLayoutSampleSized(rng, c, 2*c.InputSize, 3)

	before := m.Detect(s64.Raster)
	nominalFP := m.WorkspaceFootprint()
	if nominalFP == 0 {
		t.Fatal("nominal Detect left an empty workspace")
	}

	m.Detect(s128.Raster)
	grownFP := m.WorkspaceFootprint()
	if grownFP <= nominalFP {
		t.Fatalf("megatile Detect did not grow the workspace: %d → %d", nominalFP, grownFP)
	}

	m.TrimWorkspace(nominalFP)
	if fp := m.WorkspaceFootprint(); fp > nominalFP {
		t.Fatalf("TrimWorkspace(%d) left footprint %d", nominalFP, fp)
	}

	// Trim must be invisible to results: the nominal-size scan is
	// bit-identical, and a later megatile pass simply regrows on demand.
	after := m.Detect(s64.Raster)
	assertSameDetections(t, "Detect after TrimWorkspace", before, after)
	m.Detect(s128.Raster)
	if fp := m.WorkspaceFootprint(); fp <= nominalFP {
		t.Fatalf("workspace did not regrow after trim: footprint %d", fp)
	}
}

// TestTrainerMultiScaleSmoke trains briefly on a mixed 64px/128px batch
// stream and requires the joint loss to decrease: the shape-polymorphic
// forward/backward path must be trainable at megatile raster sizes, not
// just nominal regions, for fine-tuning on larger contexts.
func TestTrainerMultiScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short mode")
	}
	c := TinyConfig()
	c.BatchAnchors = 64
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	samples := []Sample{
		synthLayoutSampleSized(rng, c, c.InputSize, 1),
		synthLayoutSampleSized(rng, c, 2*c.InputSize, 2),
		synthLayoutSampleSized(rng, c, c.InputSize, 2),
		synthLayoutSampleSized(rng, c, 2*c.InputSize, 1),
	}
	tr := NewTrainer(m)
	const steps = 40
	var first, last float64
	for i := 0; i < steps; i++ {
		st := tr.StepBatch([]Sample{samples[i%len(samples)], samples[(i+1)%len(samples)]})
		total := st.Total()
		if math.IsNaN(total) || math.IsInf(total, 0) {
			t.Fatalf("step %d: loss is not finite: %v", i, total)
		}
		if i < 4 {
			first += total
		}
		if i >= steps-4 {
			last += total
		}
	}
	if last >= first {
		t.Errorf("mixed-scale loss did not decrease: first 4 steps avg %.4f, last 4 steps avg %.4f",
			first/4, last/4)
	}
}
