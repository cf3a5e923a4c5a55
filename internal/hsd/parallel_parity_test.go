package hsd

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rhsd/internal/layout"
	"rhsd/internal/parallel"
	"rhsd/internal/tensor"
)

// detectAtWorkers runs f under a fixed worker count, restoring the
// previous count afterwards.
func detectAtWorkers[T any](n int, f func() T) T {
	prev := parallel.SetWorkers(n)
	defer parallel.SetWorkers(prev)
	return f()
}

// assertSameDetections requires exact (bit-level float64) equality — the
// parallel scan promises byte-identical output, not mere tolerance.
func assertSameDetections(t *testing.T, label string, serial, par []Detection) {
	t.Helper()
	if len(serial) != len(par) {
		t.Fatalf("%s: %d detections serial vs %d parallel", label, len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("%s: detection %d differs:\n  serial   %+v\n  parallel %+v", label, i, serial[i], par[i])
		}
	}
}

func parityModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDetectParityAcrossWorkerCounts(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3; trial++ {
		x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
		x.RandUniform(rng, 0, 1)
		serial := detectAtWorkers(1, func() []Detection { return m.Detect(x) })
		par := detectAtWorkers(8, func() []Detection { return m.Detect(x) })
		assertSameDetections(t, "Detect", serial, par)
	}
}

func TestDetectParityWithoutRefine(t *testing.T) {
	c := TinyConfig()
	c.UseRefine = false
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	x.RandUniform(rng, 0, 1)
	serial := detectAtWorkers(1, func() []Detection { return m.Detect(x) })
	par := detectAtWorkers(8, func() []Detection { return m.Detect(x) })
	assertSameDetections(t, "Detect w/o refine", serial, par)
}

func TestDetectLayoutParityAcrossWorkerCounts(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	regionNM := c.RegionNM()
	// 2×2 regions plus a ragged right/bottom margin so the factor-1 grid
	// has clamped final megatiles.
	big := layout.New(layout.R(0, 0, 2*regionNM+regionNM/3, 2*regionNM+regionNM/5))
	for x := 40; x < big.Bounds.X1-80; x += 150 {
		big.Add(layout.R(x, 30, x+70, big.Bounds.Y1-50))
	}
	serial := detectAtWorkers(1, func() []Detection { return m.DetectLayoutMegatile(big, big.Bounds, 1) })
	par := detectAtWorkers(8, func() []Detection { return m.DetectLayoutMegatile(big, big.Bounds, 1) })
	assertSameDetections(t, "factor-1 scan", serial, par)
}

func TestDetectLayoutParitySingleTile(t *testing.T) {
	// Degenerate scan: window smaller than one region → exactly one
	// megatile, exercising the workers>megatiles clamp.
	m := parityModel(t)
	c := m.Config
	l := layout.New(layout.R(0, 0, c.RegionNM()/2, c.RegionNM()/2))
	l.Add(layout.R(20, 20, 90, c.RegionNM()/2-20))
	serial := detectAtWorkers(1, func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 1) })
	par := detectAtWorkers(8, func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 1) })
	assertSameDetections(t, "factor-1 scan, one megatile", serial, par)
}

func TestCloneProducesIdenticalDetections(t *testing.T) {
	m := parityModel(t)
	clone, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	x := tensor.New(1, InputChannels, m.Config.InputSize, m.Config.InputSize)
	x.RandUniform(rng, 0, 1)
	assertSameDetections(t, "Clone", m.Detect(x), clone.Detect(x))
	// The replica must be state-independent: running the clone again after
	// the original mutated its activation caches changes nothing.
	m.Detect(x)
	assertSameDetections(t, "Clone after original reran", m.Detect(x), clone.Detect(x))
}

// TestConfigChangeReachesScanWorkers pins that a scan worker runs with
// the model's present Config: after a 2-worker scan has built the
// worker, raising the score threshold must change the next 2-worker
// scan exactly as it changes a 1-worker scan, which runs on the model
// itself. A worker that kept the Config it was built with would report
// clips below the new threshold.
func TestConfigChangeReachesScanWorkers(t *testing.T) {
	c := TinyConfig()
	c.ScoreThreshold = 0
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	l := scanLayout(c)
	scan := func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 1) }
	first := detectAtWorkers(2, scan)
	if len(first) < 2 {
		t.Fatalf("threshold-0 scan reported %d detections, want at least 2", len(first))
	}
	scores := make([]float64, len(first))
	for i, d := range first {
		scores[i] = d.Score
	}
	slices.Sort(scores)
	threshold := scores[len(scores)/2]
	m.Config.ScoreThreshold = threshold

	two := detectAtWorkers(2, scan)
	one := detectAtWorkers(1, scan)
	assertSameDetections(t, "scan after raising the threshold", one, two)
	if len(one) == 0 {
		t.Fatalf("no detection at or above threshold %v", threshold)
	}
	for i, d := range two {
		if d.Score < threshold {
			t.Fatalf("detection %d scores %v, below the threshold %v", i, d.Score, threshold)
		}
	}
}

// TestViewsInferConcurrently runs a model and its clone, which share
// layers, packed weights and the int8 quantizer, concurrently in fp32
// and in int8 (-race checks that inference writes only each view's pass
// state), and an int8 layout scan at 2 scan workers against the 1-worker
// scan. It stays on in -short mode so `make race` runs it.
func TestViewsInferConcurrently(t *testing.T) {
	m := parityModel(t)
	rs := quantTestRasters(m.Config, 3, 81)
	if err := m.CalibrateInt8(rs[1:]); err != nil {
		t.Fatal(err)
	}
	clone, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	x := rs[0]
	for _, precision := range []string{PrecisionFP32, PrecisionInt8} {
		for _, v := range []*Model{m, clone} {
			if err := v.SetPrecision(precision); err != nil {
				t.Fatal(err)
			}
		}
		want := m.Detect(x)
		var got [2][]Detection
		var wg sync.WaitGroup
		for i, v := range []*Model{m, clone} {
			wg.Add(1)
			go func(i int, v *Model) {
				defer wg.Done()
				got[i] = v.Detect(x)
			}(i, v)
		}
		wg.Wait()
		assertSameDetections(t, precision+" model", want, got[0])
		assertSameDetections(t, precision+" clone", want, got[1])
	}

	l := scanLayout(m.Config)
	scan := func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 1) }
	one := detectAtWorkers(1, scan)
	two := detectAtWorkers(2, scan)
	assertSameDetections(t, "int8 scan at 2 workers", one, two)
}
