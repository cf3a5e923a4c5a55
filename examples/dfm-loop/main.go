// DFM loop: detect hotspots, correct them, verify the fix.
//
// The paper motivates hotspot detection as a step inside the design-for-
// manufacturability loop. This example closes that loop on the synthetic
// substrate: a briefly-trained R-HSD model flags hotspot clips in a test
// region, rule-based OPC (internal/opc) biases the geometry inside the
// flagged clips, and the litho proxy re-verifies the corrected region.
//
// Run with: go run ./examples/dfm-loop
package main

import (
	"context"
	"fmt"
	"log"

	"rhsd/internal/dataset"
	"rhsd/internal/eval"
	"rhsd/internal/hsd"
	"rhsd/internal/layout"
	"rhsd/internal/opc"
)

func main() {
	p := eval.FastProfile()
	p.HSD.TrainSteps = 400 // brief: this demo shows the loop, not peak accuracy

	spec := dataset.CaseSpecs(p.RegionNM)[0]
	data := dataset.Generate(spec, p.Litho, 8, 3)

	fmt.Println("training the detector briefly...")
	model, err := eval.TrainOurs(p.HSD, data.Train, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Identical megatile content (repeated cells, re-verified regions)
	// is served from this cache instead of re-running the forward pass.
	model.SetScanCache(hsd.NewDetCache(32 << 20))

	var fixedFirst *layout.Layout
	for i, r := range data.Test {
		before := len(r.Hotspots)
		sample := hsd.MakeSample(r.Layout, nil, p.HSD)
		dets := model.DetectionsNM(model.Detect(sample.Raster))

		// Correct only the geometry inside detected clips: OPC is
		// expensive at full-chip scale, so the detector's job is to focus
		// it (the paper's DFM-flow argument).
		flagged := layout.New(r.Layout.Bounds)
		untouched := layout.New(r.Layout.Bounds)
		for _, rc := range r.Layout.Rects {
			inDet := false
			for _, d := range dets {
				if rc.Overlaps(layout.R(int(d.Clip.X0), int(d.Clip.Y0), int(d.Clip.X1), int(d.Clip.Y1))) {
					inDet = true
					break
				}
			}
			if inDet {
				flagged.Add(rc)
			} else {
				untouched.Add(rc)
			}
		}
		res := opc.Correct(flagged, p.Litho, opc.DefaultConfig())

		merged := layout.New(r.Layout.Bounds)
		for _, rc := range untouched.Rects {
			merged.Add(rc)
		}
		for _, rc := range res.Corrected.Rects {
			merged.Add(rc)
		}
		after := len(p.Litho.Simulate(merged, merged.Bounds))
		if i == 0 {
			fixedFirst = merged
		}

		fmt.Printf("region %d: %2d hotspots, %2d detections → OPC moved %3d edges → %2d hotspots remain\n",
			i, before, len(dets), res.MovedEdges, after)
	}
	fmt.Println("\n(residual hotspots are detector misses or geometry OPC cannot fix within mask rules)")

	// Re-verifying a whole chip after one local fix should not cost a
	// whole-chip scan. rhsd-serve does this over HTTP (/detect?since=);
	// this is the in-process version: scan once, apply the region-0 fix,
	// diff the two layouts, and rescan — only megatiles a dirty rect
	// touches are re-rasterized, the rest are reused, and cached,
	// incremental and cold scans are bit-identical.
	chipBefore := stitch(data.Test, nil, p.RegionNM)
	chipAfter := stitch(data.Test, fixedFirst, p.RegionNM)
	scan, err := model.Scan(context.Background(), hsd.ScanRequest{Layout: chipBefore, Window: chipBefore.Bounds, Factor: 1})
	if err != nil {
		log.Fatal(err)
	}
	rescan, err := model.Scan(context.Background(), hsd.ScanRequest{
		Layout: chipAfter, Window: chipAfter.Bounds, Factor: 1,
		Prev: scan, Dirty: layout.Diff(chipBefore, chipAfter),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchip scan: %d detections over %d megatiles\n", len(scan.Detections), scan.TilesScanned)
	fmt.Printf("after the region-0 fix: %d rescanned, %d reused → %d detections\n",
		rescan.TilesScanned, rescan.TilesReused, len(rescan.Detections))

	// A full sign-off re-check of the fixed chip rasterizes everything
	// again, but every megatile's content is now cached: no forward pass.
	model.DetectLayoutMegatile(chipAfter, chipAfter.Bounds, 1)
	stats := model.ScanCache().Stats()
	fmt.Printf("sign-off re-check: result cache served %d of %d lookups without a forward pass\n",
		stats.Hits, stats.Hits+stats.Misses)
}

// stitch lays the test regions side by side as one chip, optionally
// substituting the corrected geometry for region 0.
func stitch(regions []*dataset.Region, replaceFirst *layout.Layout, regionNM int) *layout.Layout {
	chip := layout.New(layout.R(0, 0, len(regions)*regionNM, regionNM))
	for i, r := range regions {
		src := r.Layout
		if i == 0 && replaceFirst != nil {
			src = replaceFirst
		}
		for _, rc := range src.Rects {
			chip.Add(layout.R(rc.X0+i*regionNM, rc.Y0, rc.X1+i*regionNM, rc.Y1))
		}
	}
	return chip
}
