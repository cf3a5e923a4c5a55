package eval

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"rhsd/internal/baseline/ssd"
	"rhsd/internal/baseline/tcad"
	"rhsd/internal/hsd"
)

func TestProfilesValidate(t *testing.T) {
	if err := FastProfile().Validate(); err != nil {
		t.Fatalf("fast profile: %v", err)
	}
	if err := SmokeProfile().Validate(); err != nil {
		t.Fatalf("smoke profile: %v", err)
	}
	if err := FullProfile().Validate(); err != nil {
		t.Fatalf("full profile: %v", err)
	}
	bad := FastProfile()
	bad.RegionNM = 1000
	if bad.Validate() == nil {
		t.Fatal("mismatched region size must fail validation")
	}
}

func TestLoadDataMergesTrainingHalves(t *testing.T) {
	p := SmokeProfile()
	d := LoadData(p)
	if len(d.Cases) != 3 {
		t.Fatalf("cases: %d", len(d.Cases))
	}
	if len(d.MergedTrain) != 3*p.NTrain {
		t.Fatalf("merged train: %d want %d", len(d.MergedTrain), 3*p.NTrain)
	}
	for _, ds := range d.Cases {
		if len(ds.Test) != p.NTest {
			t.Fatalf("%s test regions: %d", ds.Name, len(ds.Test))
		}
	}
}

func TestAblationVariantsToggleTheRightKnobs(t *testing.T) {
	full := FastProfile().HSD
	vs := AblationVariants(full)
	if len(vs) != 4 {
		t.Fatalf("variants: %d", len(vs))
	}
	byName := map[string]AblationVariant{}
	for _, v := range vs {
		byName[v.Name] = v
	}
	if byName["w/o. ED"].Config.UseEncDec {
		t.Fatal("w/o. ED keeps the encoder-decoder")
	}
	if byName["w/o. L2"].Config.L2Beta != 0 {
		t.Fatal("w/o. L2 keeps regularization")
	}
	if byName["w/o. Refine"].Config.UseRefine {
		t.Fatal("w/o. Refine keeps the 2nd stage")
	}
	f := byName["Full"].Config
	if !f.UseEncDec || !f.UseRefine || f.L2Beta == 0 {
		t.Fatal("Full variant altered")
	}
	// Ablations must not perturb unrelated settings.
	if byName["w/o. ED"].Config.TrainSteps != full.TrainSteps {
		t.Fatal("ablation changed the training budget")
	}
}

// TestExperimentsShareOneTrainedModel pins the sharing behind
// rhsd-bench -exp all: every experiment on one Data asks trainOurs for
// its configuration and gets the model trained on first request. Sharing
// is sound only because training is deterministic, so a separate
// training must score identically.
func TestExperimentsShareOneTrainedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short")
	}
	p := SmokeProfile()
	data := LoadData(p)
	m, err := data.trainOurs(p.HSD, DetOurs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := data.trainOurs(p.HSD, DetOurs, nil); again != m {
		t.Fatal("a second request for the same configuration trained a new model")
	}
	woRef := p.HSD
	woRef.UseRefine = false
	if other, _ := data.trainOurs(woRef, DetOurs, nil); other == m {
		t.Fatal("a different configuration got the shared model")
	}
	fresh, err := TrainOurs(p.HSD, data.MergedTrain, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range data.Cases {
		shared, separate := EvalOurs(m, ds.Test), EvalOurs(fresh, ds.Test)
		shared.Elapsed, separate.Elapsed = 0, 0
		if shared != separate {
			t.Fatalf("%s: shared model scores %+v, a separate training %+v", ds.Name, shared, separate)
		}
	}
}

// TestExperimentsShareTrainedBaselines extends the sharing to the
// TCAD'18 and SSD baselines, which Table 1, the ROC sweep and Figure 9
// train on the same merged regions: a second request hands back the
// first detector and its progress line says "reusing", and since their
// training is deterministic, a separately trained detector scores
// identically.
func TestExperimentsShareTrainedBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short")
	}
	p := SmokeProfile()
	data := LoadData(p)
	clipNM := p.HSD.ClipNM()
	var lines []string
	progress := func(s string) { lines = append(lines, s) }
	td := data.trainTCAD(p.TCAD, progress)
	sd := data.trainSSD(p.SSD, clipNM, progress)
	if data.trainTCAD(p.TCAD, progress) != td || data.trainSSD(p.SSD, clipNM, progress) != sd {
		t.Fatal("a second request for a baseline trained a new detector")
	}
	if other := data.trainSSD(p.SSD, clipNM/2, nil); other == sd {
		t.Fatal("an SSD at another clip size got the shared detector")
	}
	want := []string{"training " + DetTCAD, "training " + DetSSD, "reusing " + DetTCAD, "reusing " + DetSSD}
	if fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Fatalf("progress lines %q, want %q", lines, want)
	}

	freshTD := tcad.New(p.TCAD)
	freshTD.Train(data.MergedTrain)
	freshSD := ssd.New(p.SSD)
	freshSD.Train(data.MergedTrain, clipNM)
	for _, ds := range data.Cases {
		shared, separate := td.Evaluate(ds.Test), freshTD.Evaluate(ds.Test)
		shared.Elapsed, separate.Elapsed = 0, 0
		if shared != separate {
			t.Fatalf("%s: shared TCAD'18 scores %+v, a separate training %+v", ds.Name, shared, separate)
		}
		shared, separate = sd.Evaluate(ds.Test, clipNM), freshSD.Evaluate(ds.Test, clipNM)
		shared.Elapsed, separate.Elapsed = 0, 0
		if shared != separate {
			t.Fatalf("%s: shared SSD scores %+v, a separate training %+v", ds.Name, shared, separate)
		}
	}
}

func TestRunTable1SmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test skipped in -short")
	}
	p := SmokeProfile()
	data := LoadData(p)
	var lines []string
	tbl, err := RunTable1(p, data, func(s string) { lines = append(lines, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12 { // 3 cases × 4 detectors
		t.Fatalf("table rows: %d", len(tbl.Rows))
	}
	rendered := tbl.Render(DetTCAD)
	for _, want := range []string{"Case2", "Case3", "Case4", "Average", "Ratio", DetOurs} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("table missing %q:\n%s", want, rendered)
		}
	}
	if len(lines) == 0 {
		t.Fatal("progress callback never invoked")
	}
	// Outcomes are internally consistent.
	for _, r := range tbl.Rows {
		if r.Outcome.Detected > r.Outcome.GroundTruth {
			t.Fatalf("row %v: detected > ground truth", r)
		}
		if r.Outcome.Elapsed <= 0 {
			t.Fatalf("row %v: missing timing", r)
		}
	}
}

func TestRunFigure9WritesPanels(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test skipped in -short")
	}
	p := SmokeProfile()
	data := LoadData(p)
	dir := t.TempDir()
	if err := RunFigure9(p, data, dir, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 { // 3 cases × 3 panels
		t.Fatalf("figure 9 panels: %d", len(entries))
	}
}

func TestRenderFigure10Format(t *testing.T) {
	vs := []AblationVariant{
		{Name: "w/o. ED", Accuracy: 88.5, FA: 120},
		{Name: "Full", Accuracy: 95.8, FA: 84},
	}
	s := RenderFigure10(vs)
	if !strings.Contains(s, "w/o. ED") || !strings.Contains(s, "95.80") {
		t.Fatalf("figure 10 render:\n%s", s)
	}
}

func TestExtendedAblationVariants(t *testing.T) {
	vs := ExtendedAblationVariants(FastProfile().HSD)
	if len(vs) != 4 {
		t.Fatalf("variants: %d", len(vs))
	}
	byName := map[string]AblationVariant{}
	for _, v := range vs {
		byName[v.Name] = v
	}
	if byName["1 anchor/px"].Config.AnchorsPerCell() != 1 {
		t.Fatal("single-anchor variant wrong")
	}
	if !byName["conv. NMS"].Config.ConventionalNMS {
		t.Fatal("conventional NMS variant wrong")
	}
	if byName["w/o fine tap"].Config.UseFineTap {
		t.Fatal("fine-tap variant wrong")
	}
	if byName["Full"].Config.ConventionalNMS || byName["Full"].Config.AnchorsPerCell() != 12 ||
		!byName["Full"].Config.UseFineTap {
		t.Fatal("full variant altered")
	}
}

func TestRunFigure10SmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test skipped in -short")
	}
	p := SmokeProfile()
	p.HSD.TrainSteps = 12 // 4 variants × 12 steps keeps this quick
	data := LoadData(p)
	variants, err := RunFigure10(p, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 4 {
		t.Fatalf("variants: %d", len(variants))
	}
	for _, v := range variants {
		if v.Accuracy < 0 || v.Accuracy > 100 {
			t.Fatalf("%s: accuracy %v", v.Name, v.Accuracy)
		}
		if v.FA < 0 {
			t.Fatalf("%s: FA %v", v.Name, v.FA)
		}
	}
}

func TestRunSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test skipped in -short")
	}
	p := SmokeProfile()
	p.HSD.TrainSteps = 10
	data := LoadData(p)
	points := []SweepPoint{
		{Name: "a", Mutate: func(c *hsd.Config) { c.ScoreThreshold = 0.4 }},
		{Name: "b", Mutate: func(c *hsd.Config) { c.ScoreThreshold = 0.6 }},
	}
	var seen []SweepSample
	samples, err := RunSweep(p, data, points, 5, func(s SweepSample) { seen = append(seen, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 { // 2 points × 2 evals (step 5 and 10)
		t.Fatalf("samples: %d (%v)", len(samples), samples)
	}
	if len(seen) != len(samples) {
		t.Fatal("progress callback missed samples")
	}
	best := BestByAccuracy(samples)
	if len(best) != 2 {
		t.Fatalf("best map: %v", best)
	}
	csv := SweepCSV(samples)
	if !strings.Contains(csv, "point,step,accuracy_pct,false_alarms") {
		t.Fatalf("csv header missing:\n%s", csv)
	}
}

func TestRunExtendedTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline smoke test skipped in -short")
	}
	p := SmokeProfile()
	p.HSD.TrainSteps = 10
	data := LoadData(p)
	tbl, err := RunExtendedTable1(p, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 { // 3 cases × 3 detectors
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	rendered := tbl.Render(DetOurs)
	for _, want := range []string{DetPatMatch, DetAdaBoost, DetOurs} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("missing %q:\n%s", want, rendered)
		}
	}
}
