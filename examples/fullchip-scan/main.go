// Full-chip scan: the motivating scenario of the paper's introduction.
//
// A conventional detector must slide a clip-sized window across the whole
// chip with core-sized strides and classify every window independently
// (Figure 1). The region-based detector covers the same area with a few
// large-region forward passes (Figure 2). This example builds a multi-
// region "chip", runs both flows with briefly-trained models and reports
// the wall-clock ratio — the mechanism behind the paper's ~45× average
// speedup claim.
//
// Run with: go run ./examples/fullchip-scan
package main

import (
	"fmt"
	"log"
	"time"

	"rhsd/internal/baseline/tcad"
	"rhsd/internal/dataset"
	"rhsd/internal/eval"
	"rhsd/internal/hsd"
	"rhsd/internal/layout"
)

func main() {
	p := eval.FastProfile()
	p.HSD.TrainSteps = 200 // brief: this example demonstrates throughput
	p.TCAD.TrainSteps = 200

	// Training data: a few regions of Case2.
	spec := dataset.CaseSpecs(p.RegionNM)[0]
	data := dataset.Generate(spec, p.Litho, 6, 0)

	fmt.Println("briefly training both detectors...")
	ours, err := eval.TrainOurs(p.HSD, data.Train, nil)
	if err != nil {
		log.Fatal(err)
	}
	conv := tcad.New(p.TCAD)
	conv.Train(data.Train)

	// Build a 3×3-region "chip" by stitching fresh regions.
	const tiles = 3
	chipNM := tiles * p.RegionNM
	chip := layout.New(layout.R(0, 0, chipNM, chipNM))
	stitched := dataset.Generate(spec, p.Litho, tiles*tiles, 0)
	var gt [][2]float64
	for ty := 0; ty < tiles; ty++ {
		for tx := 0; tx < tiles; tx++ {
			r := stitched.Train[ty*tiles+tx]
			offX, offY := tx*p.RegionNM, ty*p.RegionNM
			for _, rc := range r.Layout.Rects {
				chip.Add(layout.R(rc.X0+offX, rc.Y0+offY, rc.X1+offX, rc.Y1+offY))
			}
			for _, pt := range r.HotspotPoints() {
				gt = append(gt, [2]float64{pt[0] + float64(offX), pt[1] + float64(offY)})
			}
		}
	}
	fmt.Printf("chip: %d nm square, %d shapes, %d simulated hotspots\n\n",
		chipNM, len(chip.Rects), len(gt))

	// Region-based flow: overlapping regions, one pass each (megatile
	// factor 1).
	start := time.Now()
	regionDets := ours.DetectLayoutMegatile(chip, chip.Bounds, 1)
	regionTime := time.Since(start)
	fmt.Printf("region-based flow: %4d detections in %8.3fs\n", len(regionDets), regionTime.Seconds())

	// Conventional flow: clip-sized windows at core stride over the chip.
	start = time.Now()
	convDets := scanConventional(conv, chip)
	convTime := time.Since(start)
	fmt.Printf("conventional flow: %4d detections in %8.3fs\n", len(convDets), convTime.Seconds())

	fmt.Printf("\nspeedup: %.1f× (clip windows scanned: %d vs region passes: %d)\n",
		convTime.Seconds()/regionTime.Seconds(),
		windowCount(conv.Config, chipNM), regionPasses(p.HSD, chipNM))
}

// scanConventional runs the TCAD clip classifier over the whole chip at
// core stride, the Figure-1 flow.
func scanConventional(d *tcad.Detector, chip *layout.Layout) []hsd.Detection {
	region := &dataset.Region{Layout: chip}
	var out []hsd.Detection
	for _, det := range d.DetectRegion(region) {
		out = append(out, hsd.Detection{Clip: det.Clip, Score: det.Score})
	}
	return out
}

func windowCount(c tcad.Config, chipNM int) int {
	stride := c.ClipNM() / 3
	n := int((float64(chipNM) - c.ClipNM()) / stride)
	return (n + 1) * (n + 1)
}

// regionPasses counts the factor-1 scan's passes: per axis, one region at
// the origin and one more per stride until the chip is covered.
func regionPasses(c hsd.Config, chipNM int) int {
	spec := c.Megatile(1)
	n := 1
	if chipNM > spec.RegionNM {
		n += (chipNM - spec.RegionNM + spec.StrideNM - 1) / spec.StrideNM
	}
	return n * n
}
