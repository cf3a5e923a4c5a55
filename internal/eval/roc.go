package eval

import (
	"fmt"

	"rhsd/internal/baseline/ssd"
	"rhsd/internal/baseline/tcad"
	"rhsd/internal/dataset"
	"rhsd/internal/hsd"
	"rhsd/internal/metrics"
)

// The ROC experiment extends the paper's single-operating-point Table 1
// with the full accuracy/false-alarm trade-off curve, in the spirit of
// the LithoROC line of work the paper cites. Detectors are run with their
// thresholds opened up so every scored candidate is kept; the sweep is
// then applied post-hoc by metrics.ROC.

// CollectOursResults runs the R-HSD detector with an opened-up threshold
// over the regions and returns scored per-region results for ROC
// sweeping. The threshold is opened on a view of m, so m itself is left
// as it was.
func CollectOursResults(m *hsd.Model, regions []*dataset.Region) []metrics.RegionResult {
	v, _ := m.Clone() // a view: Clone cannot fail
	v.Config.ScoreThreshold = 0.01
	var out []metrics.RegionResult
	for _, r := range regions {
		sample := hsd.MakeSample(r.Layout, nil, m.Config)
		dets := v.DetectionsNM(v.Detect(sample.Raster))
		md := make([]metrics.Detection, len(dets))
		for i, d := range dets {
			md[i] = metrics.Detection{Clip: d.Clip, Score: d.Score}
		}
		out = append(out, metrics.RegionResult{Dets: md, GT: r.HotspotPoints()})
	}
	return out
}

// CollectTCADResults opens up the TCAD detector's bias so every window's
// score survives to the sweep, on a copy of d sharing its network.
func CollectTCADResults(d *tcad.Detector, regions []*dataset.Region) []metrics.RegionResult {
	open := *d
	open.Config.Bias = 0.49 // accept essentially everything; sweep filters
	var out []metrics.RegionResult
	for _, r := range regions {
		out = append(out, metrics.RegionResult{Dets: open.DetectRegion(r), GT: r.HotspotPoints()})
	}
	return out
}

// CollectSSDResults opens up the SSD score threshold for ROC sweeping,
// on a copy of d sharing its network.
func CollectSSDResults(d *ssd.Detector, regions []*dataset.Region, clipNM float64) []metrics.RegionResult {
	open := *d
	open.Config.ScoreThresh = 0.01
	var out []metrics.RegionResult
	for _, r := range regions {
		out = append(out, metrics.RegionResult{Dets: open.DetectRegion(r, clipNM), GT: r.HotspotPoints()})
	}
	return out
}

// ROCResult is one detector's operating curve.
type ROCResult struct {
	Detector string
	Points   []metrics.ROCPoint
	AUAC     float64
}

// RunROC trains ours, TCAD'18 and SSD on the merged training halves and
// sweeps their operating curves over all test regions. (Faster R-CNN is
// omitted: its generic anchors fire so rarely that its curve degenerates,
// as Table 1 already shows.)
func RunROC(p Profile, data *Data, progress func(string)) ([]ROCResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	say := func(f string, a ...any) {
		if progress != nil {
			progress(fmt.Sprintf(f, a...))
		}
	}
	var allTest []*dataset.Region
	for _, ds := range data.Cases {
		allTest = append(allTest, ds.Test...)
	}
	thresholds := metrics.DefaultThresholds(20)

	td := data.trainTCAD(p.TCAD, progress)
	sd := data.trainSSD(p.SSD, p.HSD.ClipNM(), progress)
	ours, err := data.trainOurs(p.HSD, DetOurs, progress)
	if err != nil {
		return nil, err
	}

	say("sweeping operating curves over %d regions", len(allTest))
	results := []ROCResult{
		{Detector: DetTCAD, Points: metrics.ROC(CollectTCADResults(td, allTest), thresholds)},
		{Detector: DetSSD, Points: metrics.ROC(CollectSSDResults(sd, allTest, p.HSD.ClipNM()), thresholds)},
		{Detector: DetOurs, Points: metrics.ROC(CollectOursResults(ours, allTest), thresholds)},
	}
	for i := range results {
		results[i].AUAC = metrics.AUAC(results[i].Points)
	}
	return results, nil
}

// RenderROCResults prints all curves plus the AUAC summary.
func RenderROCResults(rs []ROCResult) string {
	out := "ROC extension — accuracy vs false alarms across score thresholds\n"
	for _, r := range rs {
		out += fmt.Sprintf("\n%s (AUAC %.3f):\n%s", r.Detector, r.AUAC, metrics.RenderROC(r.Points))
	}
	return out
}
