package hsd

import (
	"testing"

	"rhsd/internal/geom"
	"rhsd/internal/layout"
	"rhsd/internal/tensor"
)

func TestDetectLayoutTilesLargeWindows(t *testing.T) {
	c := TinyConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	// A 2×2-region layout scanned region by region; untrained model — we
	// only validate tiling mechanics: no panic, detections inside the
	// window, nm coordinates.
	regionNM := c.RegionNM()
	big := layout.New(layout.R(0, 0, 2*regionNM, 2*regionNM))
	for x := 40; x < 2*regionNM-40; x += 160 {
		big.Add(layout.R(x, 40, x+64, 2*regionNM-40))
	}
	dets := m.DetectLayoutMegatile(big, big.Bounds, 1)
	for _, d := range dets {
		if d.Clip.X0 < -1 || d.Clip.Y0 < -1 ||
			d.Clip.X1 > float64(2*regionNM)+1 || d.Clip.Y1 > float64(2*regionNM)+1 {
			t.Fatalf("detection %v outside window", d.Clip)
		}
	}
}

func TestDetectLayoutWindowOffsetsAreRelative(t *testing.T) {
	c := TinyConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	regionNM := c.RegionNM()
	// The same geometry placed at two absolute positions; detections are
	// reported relative to the scan window so both must agree.
	l1 := layout.New(layout.R(0, 0, regionNM, regionNM))
	l2 := layout.New(layout.R(regionNM, regionNM, 2*regionNM, 2*regionNM))
	for x := 40; x < regionNM-40; x += 160 {
		l1.Add(layout.R(x, 40, x+64, regionNM-40))
		l2.Add(layout.R(x+regionNM, 40+regionNM, x+64+regionNM, 2*regionNM-40))
	}
	d1 := m.DetectLayoutMegatile(l1, l1.Bounds, 1)
	d2 := m.DetectLayoutMegatile(l2, l2.Bounds, 1)
	if len(d1) != len(d2) {
		t.Fatalf("translation changed detection count: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i].Clip != d2[i].Clip {
			t.Fatalf("window-relative coordinates differ: %v vs %v", d1[i].Clip, d2[i].Clip)
		}
	}
}

func TestDetectionsNMScalesByPitch(t *testing.T) {
	c := TinyConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	px := []Detection{{Clip: geom.Rect{X0: 8, Y0: 8, X1: 24, Y1: 24}, Score: 0.9}}
	nm := m.DetectionsNM(px)
	if nm[0].Clip.X0 != 8*c.PitchNM || nm[0].Clip.X1 != 24*c.PitchNM {
		t.Fatalf("nm conversion wrong: %v", nm[0].Clip)
	}
	if nm[0].Score != 0.9 {
		t.Fatal("score must be preserved")
	}
}

func TestTileOrigins(t *testing.T) {
	cases := []struct {
		lo, hi, region, stride int
		want                   []int
	}{
		{0, 768, 768, 576, []int{0}},            // exactly one region
		{0, 500, 768, 576, []int{0}},            // window smaller than region
		{0, 1536, 768, 576, []int{0, 576, 768}}, // clamped final tile
		{100, 1000, 400, 300, []int{100, 400, 600}},
		// Negative-coordinate windows: origins stay on the window grid.
		{-768, 0, 768, 576, []int{-768}},
		{-1000, 536, 768, 576, []int{-1000, -424, -232}},
		// Degenerate strides clamp to one full region instead of looping.
		{0, 1536, 768, 0, []int{0, 768}},
		{0, 2000, 768, -5, []int{0, 768, 1232}},
	}
	for _, c := range cases {
		got := tileOrigins(c.lo, c.hi, c.region, c.stride)
		if len(got) != len(c.want) {
			t.Fatalf("tileOrigins(%d,%d,%d,%d)=%v want %v", c.lo, c.hi, c.region, c.stride, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("tileOrigins(%d,%d,%d,%d)=%v want %v", c.lo, c.hi, c.region, c.stride, got, c.want)
			}
		}
		// Coverage: every coordinate in [lo,hi) is inside some tile.
		last := got[len(got)-1]
		if c.hi-c.lo > c.region && last+c.region < c.hi {
			t.Fatalf("tiles do not cover window end: %v", got)
		}
	}
}

func TestConventionalNMSAblationFlag(t *testing.T) {
	c := TinyConfig()
	c.ConventionalNMS = true
	c.NMSThreshold = 0.2
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	// Two clips with disjoint cores but high body overlap: h-NMS keeps
	// both, conventional NMS must suppress one.
	clips := []ScoredClip{
		{Clip: geom.Rect{X0: 0, Y0: 0, X1: 12, Y1: 12}, Score: 0.9},
		{Clip: geom.Rect{X0: 7, Y0: 0, X1: 19, Y1: 12}, Score: 0.5},
	}
	kept := m.nms(clips)
	if len(kept) != 1 {
		t.Fatalf("conventional NMS flag not honoured: kept %d", len(kept))
	}
	m.Config.ConventionalNMS = false
	if len(m.nms(clips)) != 2 {
		t.Fatal("h-NMS path broken")
	}
}

func TestCascadeRefinementRuns(t *testing.T) {
	c := TinyConfig()
	c.RefineIterations = 3
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	x.Fill(0.5)
	dets := m.Detect(x)
	bounds := geom.Rect{X0: 0, Y0: 0, X1: float64(c.InputSize), Y1: float64(c.InputSize)}
	for _, d := range dets {
		if !bounds.ContainsRect(d.Clip) {
			t.Fatalf("cascade detection %v out of bounds", d.Clip)
		}
	}
	// Single-iteration path still works and matches RefineIterations=0.
	c1 := TinyConfig()
	c1.RefineIterations = 1
	m1, _ := NewModel(c1)
	c0 := TinyConfig()
	m0, _ := NewModel(c0)
	d1 := m1.Detect(x)
	d0 := m0.Detect(x)
	if len(d1) != len(d0) {
		t.Fatalf("iters=1 (%d dets) must equal default (%d dets)", len(d1), len(d0))
	}
}
