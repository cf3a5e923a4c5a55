package hsd

import (
	"math"
	"testing"

	"rhsd/internal/layout"
	"rhsd/internal/tensor"
)

// TestDetectLayoutParityAcrossKernels is the scan-level determinism
// contract for the runtime-dispatched GEMM kernels. For every kernel
// available on this host it checks that a full region scan is
// bit-identical at 1 and 8 workers, and that kernels of one rounding
// family (muladd: go/sse; fma: go-fma/avx2/avx512) produce bit-identical
// region-by-region (factor 1) scans — the per-element accumulation order is geometry-independent, so
// register-tile width must not leak into results. Across families a
// single rounding per multiply-add step legitimately shifts logits —
// and therefore regressed box coordinates — by ulps, so there the
// contract is: identical detection count, clip rectangles and scores
// equal to tight tolerance. The model carries no scan cache here, so no
// kernel can serve another kernel's cached tiles.
func TestDetectLayoutParityAcrossKernels(t *testing.T) {
	origKernel := tensor.GemmKernel()
	defer tensor.SetGemmKernel(origKernel)

	m := parityModel(t)
	c := m.Config
	regionNM := c.RegionNM()
	l := layout.New(layout.R(0, 0, 2*regionNM+regionNM/3, regionNM+regionNM/5))
	for x := 40; x < l.Bounds.X1-80; x += 150 {
		l.Add(layout.R(x, 30, x+70, l.Bounds.Y1-50))
	}

	perFamily := map[string][]Detection{}
	owner := map[string]string{}
	tested := 0
	for _, name := range tensor.GemmKernels() {
		if !tensor.GemmKernelAvailable(name) {
			t.Logf("kernel %s unsupported on this CPU; skipping", name)
			continue
		}
		if _, err := tensor.SetGemmKernel(name); err != nil {
			t.Fatalf("SetGemmKernel(%q): %v", name, err)
		}
		tested++

		serial := detectAtWorkers(1, func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 1) })
		par := detectAtWorkers(8, func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 1) })
		assertSameDetections(t, "kernel "+name, serial, par)

		fam := tensor.GemmKernelFamily(name)
		if prev, ok := perFamily[fam]; ok {
			assertSameDetections(t, "family "+fam+": "+name+" vs "+owner[fam], prev, serial)
		} else {
			perFamily[fam] = serial
			owner[fam] = name
		}
	}
	if tested == 0 {
		t.Fatal("no GEMM kernels available")
	}

	ma, haveMA := perFamily["muladd"]
	fa, haveFA := perFamily["fma"]
	if !haveMA || !haveFA {
		t.Logf("only one rounding family available; cross-family check skipped")
		return
	}
	if len(ma) != len(fa) {
		t.Fatalf("families disagree on detection count: muladd %d vs fma %d", len(ma), len(fa))
	}
	const coordTol = 1e-2 // nm; regressed corners drift ulps, not pixels
	for i := range ma {
		mc, fc := ma[i].Clip, fa[i].Clip
		for _, d := range []float64{mc.X0 - fc.X0, mc.Y0 - fc.Y0, mc.X1 - fc.X1, mc.Y1 - fc.Y1} {
			if math.Abs(d) > coordTol {
				t.Fatalf("detection %d clip drifts %g nm across families: %v vs %v", i, d, mc, fc)
			}
		}
		if diff := math.Abs(ma[i].Score - fa[i].Score); diff > 1e-3 {
			t.Fatalf("detection %d score drifts %g across families: %v vs %v", i, diff, ma[i].Score, fa[i].Score)
		}
	}
}
