package hsd

import (
	"math/rand"
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
