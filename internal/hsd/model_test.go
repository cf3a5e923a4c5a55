package hsd

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rhsd/internal/geom"
	"rhsd/internal/layout"
	"rhsd/internal/tensor"
)

func TestConfigValidate(t *testing.T) {
	good := TinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("tiny config invalid: %v", err)
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	bad := good
	bad.InputSize = 65
	if bad.Validate() == nil {
		t.Fatal("non-multiple input size must fail")
	}
	bad = good
	bad.PositiveIoU, bad.NegativeIoU = 0.3, 0.7
	if bad.Validate() == nil {
		t.Fatal("inverted IoU thresholds must fail")
	}
	bad = good
	bad.AspectRatios = nil
	if bad.Validate() == nil {
		t.Fatal("empty anchors must fail")
	}
}

func TestPaperConfigMatchesPaperSettings(t *testing.T) {
	c := PaperConfig()
	if c.LearningRate != 0.002 || c.LRDecayEvery != 30000 || c.LRDecayRate != 0.1 {
		t.Fatal("training schedule drifted from §4")
	}
	if c.L2Beta != 0.2 || c.AlphaLoc != 2.0 {
		t.Fatal("loss hyperparameters drifted from §4 (β=0.2, αloc=2.0)")
	}
	if len(c.AspectRatios) != 3 || len(c.Scales) != 4 {
		t.Fatal("anchor settings drifted from §4 (3 ratios × 4 scales)")
	}
	if c.RoISize != 7 || c.NMSThreshold != 0.7 {
		t.Fatal("RoI/NMS settings drifted from §3")
	}
}

func TestModelShapes(t *testing.T) {
	c := TinyConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	out := m.ForwardBase(x)
	f := c.FeatureSize()
	if out.Feat.Dim(2) != f || out.Feat.Dim(3) != f {
		t.Fatalf("feature map %v want %dx%d", out.Feat.Shape(), f, f)
	}
	if out.Feat.Dim(1) != m.FeatC {
		t.Fatalf("feature channels %d want %d", out.Feat.Dim(1), m.FeatC)
	}
	per := c.AnchorsPerCell()
	if out.ClsMap.Dim(1) != 2*per {
		t.Fatalf("cls channels %d want %d (2 per clip, Fig. 4)", out.ClsMap.Dim(1), 2*per)
	}
	if out.RegMap.Dim(1) != 4*per {
		t.Fatalf("reg channels %d want %d ([x y w h] per clip, Fig. 4)", out.RegMap.Dim(1), 4*per)
	}
}

func TestModelWithoutEncDecStillRuns(t *testing.T) {
	c := TinyConfig()
	c.UseEncDec = false
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	out := m.ForwardBase(x)
	if out.Feat.Dim(2) != c.FeatureSize() {
		t.Fatalf("w/o ED feature map %v", out.Feat.Shape())
	}
	// Ablation actually removes parameters.
	full, _ := NewModel(TinyConfig())
	if len(m.Params()) >= len(full.Params()) {
		t.Fatal("w/o ED should have fewer parameters")
	}
}

func TestProposalsRespectBoundsAndCount(t *testing.T) {
	c := TinyConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	x.RandUniform(rng, 0, 1)
	out := m.ForwardBase(x)
	props := m.Proposals(out)
	if len(props) == 0 || len(props) > c.ProposalCount {
		t.Fatalf("proposal count %d want 1..%d", len(props), c.ProposalCount)
	}
	bounds := geom.Rect{X0: 0, Y0: 0, X1: float64(c.InputSize), Y1: float64(c.InputSize)}
	for _, p := range props {
		if !bounds.ContainsRect(p.Clip) {
			t.Fatalf("proposal %v outside input bounds", p.Clip)
		}
		if p.Score < 0 || p.Score > 1 {
			t.Fatalf("score %v out of range", p.Score)
		}
	}
	// Proposals survive h-NMS: pairwise core IoU below threshold.
	for i := range props {
		for j := i + 1; j < len(props); j++ {
			if geom.CoreIoU(props[i].Clip, props[j].Clip) > c.NMSThreshold {
				t.Fatal("proposals violate h-NMS")
			}
		}
	}
}

func TestRefineForwardShapes(t *testing.T) {
	c := TinyConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	out := m.ForwardBase(x)
	rois := []geom.Rect{
		geom.RectCWH(32, 32, 16, 16),
		geom.RectCWH(16, 40, 24, 12),
	}
	cls, reg := m.RefineForward(out, rois)
	if cls.Dim(0) != 2 || cls.Dim(1) != 2 {
		t.Fatalf("refine cls shape %v", cls.Shape())
	}
	if reg.Dim(0) != 2 || reg.Dim(1) != 4 {
		t.Fatalf("refine reg shape %v", reg.Shape())
	}
}

// TestInferMatchesTrainingPath pins Detect's promise that the inference
// path is bit-identical to the training path: InferBase (fused conv +
// ReLU epilogues, workspace memory) against ForwardBase (separate ReLU
// layers, heap memory), and RefineInfer against RefineForward through
// the shared RoI pooling loop, for RoIs inside the map, partly and
// wholly outside it and under one pixel wide, with the refinement's
// Dense layers on prepacked weights and, after a Backward drops those as
// every training step does, on plain ones. It runs at the nominal raster
// and at a 2× megatile raster, with the fine tap on.
func TestInferMatchesTrainingPath(t *testing.T) {
	c := TinyConfig()
	if !c.UseFineTap {
		t.Fatal("TinyConfig must enable the fine tap for this test")
	}
	rng := rand.New(rand.NewSource(31))
	for _, px := range []int{c.InputSize, 2 * c.InputSize} {
		m, err := NewModel(c)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(1, InputChannels, px, px)
		x.RandUniform(rng, 0, 1)
		want := m.ForwardBase(x)
		got := m.InferBase(x)
		assertTensorBits(t, "Feat", want.Feat, got.Feat)
		assertTensorBits(t, "FineFeat", want.FineFeat, got.FineFeat)
		assertTensorBits(t, "ClsMap", want.ClsMap, got.ClsMap)
		assertTensorBits(t, "RegMap", want.RegMap, got.RegMap)

		s := float64(px)
		rois := []geom.Rect{
			{X0: 0.1 * s, Y0: 0.2 * s, X1: 0.45 * s, Y1: 0.6 * s},    // inside
			{X0: 0.8 * s, Y0: -0.2 * s, X1: 1.3 * s, Y1: 0.3 * s},    // partly outside
			{X0: 1.5 * s, Y0: 1.2 * s, X1: 1.8 * s, Y1: 1.9 * s},     // wholly outside
			{X0: 0.5 * s, Y0: 0.3 * s, X1: 0.5*s + 0.4, Y1: 0.7 * s}, // under one pixel wide
		}
		wantCls, wantReg := m.RefineForward(want, rois)
		gotCls, gotReg := m.RefineInfer(got, rois)
		assertTensorBits(t, "refine cls (packed)", wantCls, gotCls)
		assertTensorBits(t, "refine reg (packed)", wantReg, gotReg)

		m.RefineBackward(tensor.New(wantCls.Shape()...), tensor.New(wantReg.Shape()...))
		wantCls, wantReg = m.RefineForward(want, rois)
		gotCls, gotReg = m.RefineInfer(got, rois)
		assertTensorBits(t, "refine cls (unpacked)", wantCls, gotCls)
		assertTensorBits(t, "refine reg (unpacked)", wantReg, gotReg)
	}
}

// assertTensorBits fails unless want and got have equal shapes and
// bit-identical elements.
func assertTensorBits(t *testing.T, label string, want, got *tensor.Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v vs %v", label, got.Shape(), want.Shape())
	}
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("%s: element %d: infer %v vs forward %v", label, i, got.Data()[i], v)
		}
	}
}

func TestMakeSampleConversions(t *testing.T) {
	c := TinyConfig()
	regionNM := c.RegionNM()
	l := layout.New(layout.R(0, 0, regionNM, regionNM))
	l.Add(layout.R(0, 0, regionNM/2, regionNM))
	hs := [][2]float64{{float64(regionNM) / 4, float64(regionNM) / 2}}
	s := MakeSample(l, hs, c)
	if s.Raster.Dim(2) != c.InputSize || s.Raster.Dim(3) != c.InputSize {
		t.Fatalf("raster shape %v", s.Raster.Shape())
	}
	// Left half is metal.
	if s.Raster.At(0, 0, c.InputSize/2, 2) != 1 || s.Raster.At(0, 0, c.InputSize/2, c.InputSize-2) != 0 {
		t.Fatal("raster content wrong")
	}
	if len(s.GT) != 1 {
		t.Fatalf("gt count %d", len(s.GT))
	}
	wantCX := float64(regionNM) / 4 / c.PitchNM
	if math.Abs(s.GT[0].CX()-wantCX) > 1e-9 || s.GT[0].W() != c.ClipPx {
		t.Fatalf("gt clip %v", s.GT[0])
	}
}

func TestFlipPreservesGeometryLabels(t *testing.T) {
	c := TinyConfig()
	s := Sample{Raster: tensor.New(1, InputChannels, c.InputSize, c.InputSize)}
	s.Raster.Set(1, 0, 0, 5, 10)
	s.GT = []geom.Rect{geom.RectCWH(10.5, 5.5, 8, 8)}
	fl := Flip(s, true, false)
	size := float64(c.InputSize)
	if fl.Raster.At(0, 0, 5, c.InputSize-1-10) != 1 {
		t.Fatal("raster flip wrong")
	}
	if math.Abs(fl.GT[0].CX()-(size-10.5)) > 1e-9 || fl.GT[0].CY() != 5.5 {
		t.Fatalf("gt flip wrong: %v", fl.GT[0])
	}
	// Double flip = identity.
	back := Flip(fl, true, false)
	if back.GT[0] != s.GT[0] {
		t.Fatalf("double flip not identity: %v vs %v", back.GT[0], s.GT[0])
	}
	for i, v := range back.Raster.Data() {
		if v != s.Raster.Data()[i] {
			t.Fatal("raster double flip not identity")
		}
	}
}

func TestSigmoidDiff(t *testing.T) {
	if s := sigmoidDiff(0, 0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("equal logits: %v", s)
	}
	if s := sigmoidDiff(100, 0); s < 0.999 {
		t.Fatalf("saturated high: %v", s)
	}
	if s := sigmoidDiff(0, 100); s > 0.001 {
		t.Fatalf("saturated low: %v", s)
	}
	if s := sigmoidDiff(-1000, 1000); s != sigmoidDiff(-40, 40) && (s < 0 || s > 1e-10) {
		t.Fatalf("extreme logits: %v", s)
	}
}

func TestModelSummaryAndParamCounts(t *testing.T) {
	m, err := NewModel(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := m.ParamCount()
	if total <= 0 {
		t.Fatal("no parameters counted")
	}
	counts := m.StageParamCounts()
	sum := counts["extractor"] + counts["proposal"] + counts["refinement"]
	if sum != total {
		t.Fatalf("stage counts %v sum to %d, total %d", counts, sum, total)
	}
	s := m.Summary()
	for _, want := range []string{"R-HSD", "inception", "parameters", "A A B A A A A"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	// Ablations reflect in the summary.
	c := TinyConfig()
	c.UseEncDec = false
	c.UseRefine = false
	m2, _ := NewModel(c)
	s2 := m2.Summary()
	if !strings.Contains(s2, "w/o. ED") || !strings.Contains(s2, "w/o. Refine") {
		t.Fatalf("ablation summary wrong:\n%s", s2)
	}
}

func TestFineTapChangesRefineInputOnly(t *testing.T) {
	with := TinyConfig()
	with.UseFineTap = true
	without := TinyConfig()
	without.UseFineTap = false
	mw, err := NewModel(with)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := NewModel(without)
	if err != nil {
		t.Fatal(err)
	}
	// Same extractor/head parameter count; only the refinement trunk's
	// first module widens.
	cw := mw.StageParamCounts()
	co := mo.StageParamCounts()
	if cw["extractor"] != co["extractor"] || cw["proposal"] != co["proposal"] {
		t.Fatalf("fine tap must not change extractor/proposal params: %v vs %v", cw, co)
	}
	if cw["refinement"] <= co["refinement"] {
		t.Fatal("fine tap should add refinement parameters")
	}
	// Checkpoints are incompatible across the flag — Load must refuse.
	x := tensor.New(1, InputChannels, with.InputSize, with.InputSize)
	mw.ForwardBase(x) // touch to ensure built
	path := t.TempDir() + "/m.ckpt"
	if err := mw.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := mo.Load(path); err == nil {
		t.Fatal("loading a fine-tap checkpoint into a no-tap model must fail")
	}
}

func TestForwardBaseProducesFineFeat(t *testing.T) {
	c := TinyConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	out := m.ForwardBase(x)
	if out.FineFeat == nil {
		t.Fatal("fine feature tap missing")
	}
	if out.FineFeat.Dim(2) != c.InputSize/2 || out.FineFeat.Dim(1) != m.FineC {
		t.Fatalf("fine tap shape %v", out.FineFeat.Shape())
	}
}
