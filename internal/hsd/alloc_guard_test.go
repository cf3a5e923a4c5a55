package hsd

import (
	"math/rand"
	"testing"

	"rhsd/internal/parallel"
	"rhsd/internal/tensor"
)

// TestDetectSteadyStateAllocs is the allocation regression guard for the
// detection hot path: after a warm-up pass has sized the model's
// workspace and scratch buffers, a Detect call must perform only a small
// fixed number of heap allocations — essentially just the returned
// []Detection slice. Every kernel on the inference path takes a direct
// serial call when the worker pool has one worker, so not even
// parallel.For closure headers are allocated. Before the workspace
// arena, a single pass allocated every activation tensor: thousands of
// allocations and tens of megabytes. Workers are pinned to 1 because
// AllocsPerRun runs under GOMAXPROCS(1) and goroutine spawns would add
// nondeterministic bookkeeping allocations.
func TestDetectSteadyStateAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	c := TinyConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	x.RandUniform(rng, 0, 1)

	m.Detect(x) // warm-up: sizes the workspace arena and scratch

	allocs := testing.AllocsPerRun(10, func() {
		m.Detect(x)
	})
	// Budget: measured exactly 1 for TinyConfig (the returned []Detection
	// slice). 8 leaves headroom for toolchain drift without masking a
	// regression to per-tensor allocation (a single pass used to make
	// thousands).
	const budget = 8
	if allocs > budget {
		t.Errorf("steady-state Detect allocated %.0f times per run, want ≤ %d", allocs, budget)
	}
}

// TestMegatileDetectSteadyStateAllocs extends the allocation guard to the
// megatile shape: after a warm-up pass has grown the workspace to the
// factor-2 raster, repeated megatile-sized Detect calls must stay on the
// zero-allocation path — the megatile scan's per-pass cost is O(1)
// allocations just like the nominal scan's.
func TestMegatileDetectSteadyStateAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	c := TinyConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	px := 2 * c.InputSize
	x := tensor.New(1, InputChannels, px, px)
	x.RandUniform(rng, 0, 1)

	m.Detect(x) // warm-up: grows workspace and anchor cache to megatile size

	allocs := testing.AllocsPerRun(10, func() {
		m.Detect(x)
	})
	const budget = 8
	if allocs > budget {
		t.Errorf("steady-state megatile Detect allocated %.0f times per run, want ≤ %d", allocs, budget)
	}
}

// TestDetectTwoWorkerAllocs guards the allocations of the multi-worker
// Detect path, which the one-worker guards above cannot see: with two
// workers every parallel kernel call allocates its closures, wait group
// and goroutines, so a PaperConfig Detect allocates a few hundred times
// per pass in either precision. The budget is the count measured before
// the vector data-movement paths landed, the largest over the GEMM and
// int8 kernels: 511 in both precisions under go, go-fma, sse, avx512,
// qgo and qvnni, 403 under avx2, whose wider column blocks make fewer
// parallel calls. A change that adds allocations to the parallel path
// fails here.
func TestDetectTwoWorkerAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs PaperConfig detect passes; skipped in -short mode")
	}
	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)

	c := PaperConfig()
	m, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	rs := quantTestRasters(c, 3, 23)
	x := rs[0]
	const budget = 511
	for _, precision := range []string{PrecisionFP32, PrecisionInt8} {
		if precision == PrecisionInt8 {
			if err := m.CalibrateInt8(rs[1:]); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.SetPrecision(precision); err != nil {
			t.Fatal(err)
		}
		m.Detect(x) // warm-up: sizes the workspace, scratch and pools
		allocs := testing.AllocsPerRun(3, func() {
			m.Detect(x)
		})
		t.Logf("%s Detect at 2 workers: %.0f allocations per pass", precision, allocs)
		if allocs > budget {
			t.Errorf("%s Detect at 2 workers allocated %.0f times per pass, want ≤ %d", precision, allocs, budget)
		}
	}
}
