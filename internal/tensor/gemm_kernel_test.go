package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// availableKernels returns every registered kernel usable on this
// machine, logging the ones skipped.
func availableKernels(t *testing.T) []*gemmKernel {
	t.Helper()
	var ks []*gemmKernel
	for _, name := range GemmKernels() {
		kr := gemmKernels.lookup(name)
		if !archKernelUsable(kr) {
			t.Logf("kernel %s unsupported on this CPU; skipping", name)
			continue
		}
		ks = append(ks, kr)
	}
	return ks
}

// TestGemmKernelTailShapeParity sweeps m, n, k through ± neighbourhoods
// of each kernel's MR/NR/KC/NC multiples and pins the production
// micro-kernel bit-identical to its portable reference twin over the
// whole packed sweep — every ragged-panel and k-tail combination, all
// four transpose variants on a subset, beta semantics included. A
// tolerance cross-check against GemmUnblocked catches geometry bugs that
// a self-consistent pack/kernel pair would hide.
func TestGemmKernelTailShapeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, kr := range availableKernels(t) {
		ref := kr.refTwin()
		ms := []int{1, kr.mr - 1, kr.mr, kr.mr + 1, 2*kr.mr + 1}
		ns := []int{1, kr.nr - 1, kr.nr, kr.nr + 1, kr.nc - 1, kr.nc + 1}
		ks := []int{1, kr.kc - 1, kr.kc, kr.kc + 1, 2*kr.kc + 3}
		for _, m := range ms {
			if m < 1 {
				continue
			}
			for _, n := range ns {
				if n < 1 {
					continue
				}
				for ki, k := range ks {
					if k < 1 {
						continue
					}
					// Exercise the transpose packers on a sliding subset
					// to bound runtime; the (false,false) path runs always.
					transA := ki%2 == 1
					transB := ki%3 == 1
					a := randSlice(rng, m*k)
					b := randSlice(rng, k*n)
					cImpl := randSlice(rng, m*n)
					cRef := append([]float32(nil), cImpl...)
					cUnb := append([]float32(nil), cImpl...)
					alpha, beta := float32(0.75), float32(-0.5)
					gemmPackedWith(kr, transA, m, n, k, alpha, a, denseB(transB, k, n, b), beta, cImpl)
					gemmPackedWith(ref, transA, m, n, k, alpha, a, denseB(transB, k, n, b), beta, cRef)
					for i := range cImpl {
						if math.Float32bits(cImpl[i]) != math.Float32bits(cRef[i]) {
							t.Fatalf("%s m=%d n=%d k=%d transA=%v transB=%v: c[%d] = %x (impl) vs %x (ref)",
								kr.name, m, n, k, transA, transB, i,
								math.Float32bits(cImpl[i]), math.Float32bits(cRef[i]))
						}
					}
					GemmUnblocked(transA, transB, m, n, k, alpha, a, b, beta, cUnb)
					for i := range cImpl {
						if diff := math.Abs(float64(cImpl[i] - cUnb[i])); diff > 1e-2 {
							t.Fatalf("%s m=%d n=%d k=%d: c[%d] packed %v vs unblocked %v",
								kr.name, m, n, k, i, cImpl[i], cUnb[i])
						}
					}
				}
			}
		}
	}
}

// TestGemmKernelSpecialValues pushes NaN, ±Inf, denormals and
// overflow-provoking magnitudes through every available kernel and pins
// the result bit-identical to the portable reference — the FMA kernels'
// math.FMA emulation must reproduce hardware NaN quieting, Inf
// arithmetic and gradual underflow exactly (no FTZ/DAZ: Go never sets
// MXCSR flush modes, so denormals survive both paths).
func TestGemmKernelSpecialValues(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	denorm := math.Float32frombits(1)           // smallest subnormal
	denormBig := math.Float32frombits(0x7FFFFF) // largest subnormal
	big := float32(3e38)                        // big*big overflows to +Inf

	rng := rand.New(rand.NewSource(31))
	for _, kr := range availableKernels(t) {
		ref := kr.refTwin()
		// One shape past a full panel in every dimension so interior and
		// tail lanes both see the special values.
		m, n, k := kr.mr+1, kr.nr+1, kr.kc+2
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		// Plant specials at positions hitting lane 0 and a high lane.
		a[0] = nan
		a[k] = 0 // row 1: 0·Inf → NaN
		b[0] = inf
		b[1] = -inf
		a[2*k] = denorm
		b[n+1] = denormBig
		a[3%m*k+1] = big
		b[n+2] = big
		cImpl := randSlice(rng, m*n)
		cRef := append([]float32(nil), cImpl...)
		gemmPackedWith(kr, false, m, n, k, 1, a, denseB(false, k, n, b), 0, cImpl)
		gemmPackedWith(ref, false, m, n, k, 1, a, denseB(false, k, n, b), 0, cRef)
		sawNaN, sawInf := false, false
		for i := range cImpl {
			if math.Float32bits(cImpl[i]) != math.Float32bits(cRef[i]) {
				t.Fatalf("%s: c[%d] = %x (impl) vs %x (ref)", kr.name, i,
					math.Float32bits(cImpl[i]), math.Float32bits(cRef[i]))
			}
			if math.IsNaN(float64(cImpl[i])) {
				sawNaN = true
			}
			if math.IsInf(float64(cImpl[i]), 0) {
				sawInf = true
			}
		}
		if !sawNaN {
			t.Errorf("%s: planted NaN/0·Inf did not propagate to any output", kr.name)
		}
		if !sawInf {
			t.Errorf("%s: planted overflow did not propagate an Inf", kr.name)
		}
	}
}

// TestGemmKernelFamilyBitStability checks the cross-kernel contract: all
// available kernels of one rounding family produce bit-identical C for
// identical inputs, regardless of register-tile geometry — the
// per-element accumulation order (k ascending, shared KC) is
// geometry-independent. Families themselves agree only to rounding,
// which the test asserts too (they must differ by ≤ tolerance yet are
// not required to match bitwise).
func TestGemmKernelFamilyBitStability(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m, n, k := 37, 130, 300 // ragged for every registered geometry
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	c0 := randSlice(rng, m*n)

	results := map[string][]float32{} // family → first result seen
	owner := map[string]string{}
	for _, kr := range availableKernels(t) {
		c := append([]float32(nil), c0...)
		gemmPackedWith(kr, false, m, n, k, 0.5, a, denseB(false, k, n, b), -1, c)
		fam := kr.family()
		if prev, ok := results[fam]; ok {
			for i := range c {
				if math.Float32bits(c[i]) != math.Float32bits(prev[i]) {
					t.Fatalf("family %q: %s and %s disagree at c[%d]: %x vs %x",
						fam, kr.name, owner[fam], i,
						math.Float32bits(c[i]), math.Float32bits(prev[i]))
				}
			}
		} else {
			results[fam] = c
			owner[fam] = kr.name
		}
	}
	if len(results) == 2 {
		ma, fa := results["muladd"], results["fma"]
		for i := range ma {
			if diff := math.Abs(float64(ma[i] - fa[i])); diff > 1e-2 {
				t.Fatalf("families diverge beyond rounding at c[%d]: %v vs %v", i, ma[i], fa[i])
			}
		}
	}
}

// TestSetGemmKernel pins the dispatch API: roundtrip, unknown name,
// unsupported kernel, and that the active kernel is always usable.
func TestSetGemmKernel(t *testing.T) {
	orig := GemmKernel()
	defer SetGemmKernel(orig)

	if !GemmKernelAvailable(orig) {
		t.Fatalf("active kernel %q reported unavailable", orig)
	}
	if _, err := SetGemmKernel("no-such-kernel"); err == nil {
		t.Fatal("SetGemmKernel accepted an unknown name")
	}
	if GemmKernel() != orig {
		t.Fatalf("failed Set changed the active kernel to %q", GemmKernel())
	}
	for _, name := range GemmKernels() {
		if fam := GemmKernelFamily(name); fam != "muladd" && fam != "fma" {
			t.Fatalf("kernel %q has unexpected family %q", name, fam)
		}
		if !GemmKernelAvailable(name) {
			if _, err := SetGemmKernel(name); err == nil {
				t.Fatalf("SetGemmKernel accepted unsupported kernel %q", name)
			}
			continue
		}
		prev, err := SetGemmKernel(name)
		if err != nil {
			t.Fatalf("SetGemmKernel(%q): %v", name, err)
		}
		_ = prev
		if GemmKernel() != name {
			t.Fatalf("active = %q after SetGemmKernel(%q)", GemmKernel(), name)
		}
	}
}

// TestForcedKernelActive is the kernel-matrix gate: when
// RHSD_GEMM_KERNEL forced a kernel, the active kernel must be exactly
// that one; when the request could not be honored the test skips with
// the reason, so `make kernel-matrix` stays green on narrower hosts
// while recording what was not exercised.
func TestForcedKernelActive(t *testing.T) {
	name, present, honored := RequestedGemmKernel()
	if !present {
		t.Skip("RHSD_GEMM_KERNEL not set; nothing forced")
	}
	if !honored {
		t.Skipf("requested kernel %q unsupported on this host; dispatch fell back to %q", name, GemmKernel())
	}
	if GemmKernel() != name {
		t.Fatalf("RHSD_GEMM_KERNEL=%s honored but active kernel is %q", name, GemmKernel())
	}
}

// TestGemmKernelDispatchRace hammers Gemm from several goroutines while
// the active kernel is being flipped: the atomic swap must never tear
// (each call uses exactly one kernel) and -race must stay silent. Every
// result is checked against both families' references since either
// kernel may legally serve any call during the flip window.
func TestGemmKernelDispatchRace(t *testing.T) {
	orig := GemmKernel()
	defer SetGemmKernel(orig)

	var names []string
	for _, kr := range availableKernels(t) {
		names = append(names, kr.name)
	}
	if len(names) < 2 {
		t.Skip("need at least two usable kernels")
	}

	rng := rand.New(rand.NewSource(41))
	const m, n, k = 32, 96, 96 // past the packed cutoff
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	want := map[string][]float32{}
	for _, name := range names {
		c := make([]float32, m*n)
		gemmPackedWith(gemmKernels.lookup(name), false, m, n, k, 1, a, denseB(false, k, n, b), 0, c)
		want[GemmKernelFamily(name)] = c
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float32, m*n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				Gemm(false, false, m, n, k, 1, a, b, 0, c)
				matched := false
				for _, w := range want {
					same := true
					for i := range c {
						if math.Float32bits(c[i]) != math.Float32bits(w[i]) {
							same = false
							break
						}
					}
					if same {
						matched = true
						break
					}
				}
				if !matched {
					t.Error("Gemm result matches no kernel family: torn dispatch")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := SetGemmKernel(names[i%len(names)]); err != nil {
			t.Errorf("SetGemmKernel: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestGemmKernelGeometry pins the registry invariants the packed sweep
// relies on: nc a multiple of nr (pack buffers hold a block's panels
// exactly), tiles within gemmMaxTile, and KC equal across every kernel
// of one rounding family — the KC grouping of the k-sum is part of each
// family's bit-stability contract, so retuning KC for one family member
// (see BenchmarkGemmBlockSweep) must retune all of them together.
func TestGemmKernelGeometry(t *testing.T) {
	familyKC := map[string]int{}
	for _, kr := range gemmKernels.all {
		if kr.nc%kr.nr != 0 {
			t.Errorf("%s: nc=%d not a multiple of nr=%d", kr.name, kr.nc, kr.nr)
		}
		if kr.mr*kr.nr > gemmMaxTile {
			t.Errorf("%s: tile %dx%d exceeds gemmMaxTile", kr.name, kr.mr, kr.nr)
		}
		if kr.mr > gemmMaxMR || kr.nr > gemmMaxNR {
			t.Errorf("%s: mr=%d nr=%d exceed declared maxima", kr.name, kr.mr, kr.nr)
		}
		if kc, ok := familyKC[kr.family()]; ok {
			if kc != kr.kc {
				t.Errorf("%s: kc=%d differs from its %s-family peers' kc=%d", kr.name, kr.kc, kr.family(), kc)
			}
		} else {
			familyKC[kr.family()] = kr.kc
		}
	}
}
