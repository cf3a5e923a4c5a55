package tensor

import (
	"math/rand"
	"testing"
)

// convFusedShape is a Conv2DInfer problem instance used by the fused
// im2col tests. Every shape must be fused-eligible (its GEMM must route
// to the packed sweep), otherwise Conv2DInfer itself runs
// conv2DMaterialized and the comparison is vacuous.
type convFusedShape struct {
	n, c, h, w, oc int
	o              ConvOpts
}

func convFusedShapes() []convFusedShape {
	return []convFusedShape{
		// Backbone-like: 3×3 stride-1 same-padding, square.
		{1, 16, 28, 28, 32, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		// Strided, non-square, ragged output dims.
		{1, 8, 33, 19, 40, ConvOpts{Kernel: 3, Stride: 2, Padding: 1}},
		// Large receptive field with heavy padding.
		{1, 3, 64, 64, 18, ConvOpts{Kernel: 5, Stride: 1, Padding: 2}},
		// Pointwise (1×1): the im2col walk degenerates to a row copy.
		{1, 64, 16, 16, 32, ConvOpts{Kernel: 1, Stride: 1, Padding: 0}},
		// No padding: interior-only taps, oh < h.
		{1, 12, 30, 30, 24, ConvOpts{Kernel: 3, Stride: 1, Padding: 0}},
		// Batched: per-item fused packing.
		{3, 16, 28, 28, 32, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
	}
}

func (s convFusedShape) eligible() bool {
	oh, ow := s.o.OutDim(s.h), s.o.OutDim(s.w)
	kk := s.c * s.o.Kernel * s.o.Kernel
	return gemmUsesPacked(s.oc, oh*ow, kk)
}

// TestConvInferFusedMatchesMaterialized pins the fused im2col→packB
// inference path bit-identical to the materialized path (explicit column
// matrix then dense packB) across kernel geometries, strides, paddings
// and batch sizes, on every GEMM kernel available on this host. Packing
// B straight from the image must produce exactly the panel values packB
// reads out of the lowered matrix — zero padding, tail columns and all —
// so fusing changes memory traffic, never results.
func TestConvInferFusedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	origKernel := GemmKernel()
	defer SetGemmKernel(origKernel)
	for _, kr := range availableKernels(t) {
		if _, err := SetGemmKernel(kr.name); err != nil {
			t.Fatalf("SetGemmKernel(%q): %v", kr.name, err)
		}
		for _, sh := range convFusedShapes() {
			if !sh.eligible() {
				t.Fatalf("shape %+v below the packed cutoff; enlarge it", sh)
			}
			x := New(sh.n, sh.c, sh.h, sh.w)
			wgt := New(sh.oc, sh.c, sh.o.Kernel, sh.o.Kernel)
			bias := New(sh.oc)
			fillRand(x, rng)
			fillRand(wgt, rng)
			fillRand(bias, rng)
			ep := Epilogue{Bias: bias, Act: true, Slope: 0.1}

			want := conv2DMaterialized(nil, x, wgt, sh.o, ep)
			got := Conv2DInfer(nil, x, wgt, sh.o, ep)
			assertTensorBits(t, kr.name+" fused conv", want, got)
		}
	}
}

// TestConvInferFusedParityAcrossWorkerCounts re-checks the determinism
// contract on the fused path: a batched fused conv must be bit-identical
// at 1 and 8 workers (both the per-item batch fan-out and the
// column-block fan-out inside each GEMM are in play).
func TestConvInferFusedParityAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sh := convFusedShape{4, 16, 28, 28, 32, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}}
	x := New(sh.n, sh.c, sh.h, sh.w)
	wgt := New(sh.oc, sh.c, sh.o.Kernel, sh.o.Kernel)
	fillRand(x, rng)
	fillRand(wgt, rng)
	run := func() []float32 {
		out := Conv2DInfer(nil, x, wgt, sh.o, Epilogue{})
		return out.data
	}
	serial := runAtWorkers(1, run)
	par := runAtWorkers(8, run)
	assertBitIdentical(t, "fused conv", serial, par)
}

// TestConvInferFusedWorkspaceFootprint is the reclamation guard for the
// fused path: the workspace must never allocate the column-matrix size
// class at all — the arena retains only the output (plus smaller
// classes), so there is no dead multi-megabyte bin for Trim to carry. The materialized path at the same shape is measured as
// a contrast to prove the headroom is real, and steady-state fused
// passes must be allocation-free.
func TestConvInferFusedWorkspaceFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sh := convFusedShape{1, 16, 28, 28, 32, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}}
	if !sh.eligible() {
		t.Fatal("guard shape below the packed cutoff")
	}
	oh, ow := sh.o.OutDim(sh.h), sh.o.OutDim(sh.w)
	kk := sh.c * sh.o.Kernel * sh.o.Kernel
	colSize := sh.n * kk * oh * ow // floats the materialized path lowers into

	x := New(sh.n, sh.c, sh.h, sh.w)
	wgt := New(sh.oc, sh.c, sh.o.Kernel, sh.o.Kernel)
	fillRand(x, rng)
	fillRand(wgt, rng)

	ws := NewWorkspace()
	for pass := 0; pass < 2; pass++ {
		ws.Reset()
		Conv2DInfer(ws, x, wgt, sh.o, Epilogue{})
	}
	fused := ws.Footprint()
	if fused >= colSize {
		t.Fatalf("fused workspace footprint %d floats ≥ col size %d: column size class still allocated", fused, colSize)
	}

	wsMat := NewWorkspace()
	wsMat.Reset()
	conv2DMaterialized(wsMat, x, wgt, sh.o, Epilogue{})
	materialized := wsMat.Footprint()
	if materialized < colSize {
		t.Fatalf("materialized footprint %d floats < col size %d: contrast measurement broken", materialized, colSize)
	}
	t.Logf("workspace footprint: fused %d floats vs materialized %d floats (col matrix %d)",
		fused, materialized, colSize)

	// Steady state: with the arena warm and the pack-buffer pool primed,
	// a fused inference conv performs zero heap allocations at one
	// worker (parallel fan-out legitimately allocates closure frames).
	allocs := runAtWorkers(1, func() float64 {
		return testing.AllocsPerRun(10, func() {
			ws.Reset()
			Conv2DInfer(ws, x, wgt, sh.o, Epilogue{})
		})
	})
	if allocs != 0 {
		t.Fatalf("fused Conv2DInfer steady state allocates %.1f times per run, want 0", allocs)
	}
}

// TestConvInferFusedRefinementShapes covers the refinement-stage conv
// population: small 7×7/4×4 spatial extents whose GEMMs sat below the
// old 2^17 routing cliff and therefore ran materialized im2col through
// the scalar row kernel. With the measured small-shape routing
// (gemmUsesPacked) they are fused-eligible, so the refinement path
// never materializes a column matrix: results stay bit-identical to the
// materialized path, the workspace never allocates the column size
// class, and steady-state passes are allocation-free.
func TestConvInferFusedRefinementShapes(t *testing.T) {
	const oldCliff = 1 << 17 // the pre-routing-rework packed cutoff
	rng := rand.New(rand.NewSource(59))
	shapes := []convFusedShape{
		// Inception 1×1 branch reductions on the 7×7 RoI grid.
		{4, 64, 7, 7, 32, ConvOpts{Kernel: 1, Stride: 1, Padding: 0}},
		{1, 64, 7, 7, 16, ConvOpts{Kernel: 1, Stride: 1, Padding: 0}},
		// 3×3 branch on the halved 4×4 grid.
		{1, 48, 4, 4, 16, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		// The profiled refinement trunk conv (m=12, n=16, k=108):
		// eligible only through the wide-m routing term — its 20736
		// flops sit below even the reworked unconditional cutoff.
		{1, 12, 4, 4, 12, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
	}
	for _, sh := range shapes {
		oh, ow := sh.o.OutDim(sh.h), sh.o.OutDim(sh.w)
		kk := sh.c * sh.o.Kernel * sh.o.Kernel
		if !sh.eligible() {
			t.Fatalf("refinement shape %+v not fused-eligible", sh)
		}
		if flops := sh.oc * oh * ow * kk; flops >= oldCliff {
			t.Fatalf("refinement shape %+v (%d flops) was already above the old cliff; pick a smaller one", sh, flops)
		}
		x := New(sh.n, sh.c, sh.h, sh.w)
		wgt := New(sh.oc, sh.c, sh.o.Kernel, sh.o.Kernel)
		bias := New(sh.oc)
		fillRand(x, rng)
		fillRand(wgt, rng)
		fillRand(bias, rng)
		ep := Epilogue{Bias: bias, Act: true, Slope: 0.1}

		want := conv2DMaterialized(nil, x, wgt, sh.o, ep)
		got := Conv2DInfer(nil, x, wgt, sh.o, ep)
		assertTensorBits(t, "refinement fused conv", want, got)

		colSize := sh.n * kk * oh * ow
		ws := NewWorkspace()
		for pass := 0; pass < 2; pass++ {
			ws.Reset()
			Conv2DInfer(ws, x, wgt, sh.o, ep)
		}
		if fp := ws.Footprint(); fp >= colSize {
			t.Fatalf("shape %+v: fused footprint %d floats ≥ col size %d: column class allocated", sh, fp, colSize)
		}
		allocs := runAtWorkers(1, func() float64 {
			return testing.AllocsPerRun(10, func() {
				ws.Reset()
				Conv2DInfer(ws, x, wgt, sh.o, ep)
			})
		})
		if allocs != 0 {
			t.Fatalf("shape %+v: steady state allocates %.1f times per run, want 0", sh, allocs)
		}
	}
}
