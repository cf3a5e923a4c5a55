package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// availableQKernels returns every int8 kernel usable on this machine.
func availableQKernels(t *testing.T) []*qgemmKernel {
	t.Helper()
	var ks []*qgemmKernel
	for _, kr := range qgemmKernels.all {
		if qarchKernelUsable(kr) {
			ks = append(ks, kr)
		}
	}
	if len(ks) == 0 {
		t.Fatal("no int8 kernels available")
	}
	return ks
}

// qtestEpilogue builds a deterministic dequantization epilogue for an
// m-row result. Using non-trivial scales/corrections ensures the store
// path is exercised, while staying exactly reproducible across kernels.
func qtestEpilogue(m int) qepilogue {
	deq := make([]float32, m)
	corr := make([]int32, m)
	for r := 0; r < m; r++ {
		deq[r] = 0.25 + float32(r%5)*0.125
		corr[r] = int32(r%7) * 3
	}
	return qepilogue{deqScale: deq, corr: corr}
}

// qnaiveInt8 is the obviously-correct reference: a dense triple loop in
// exact int32 arithmetic followed by the same dequantization epilogue.
func qnaiveInt8(m, n, k int, aq []int8, b []uint8, ep qepilogue, c []float32) {
	for r := 0; r < m; r++ {
		for s := 0; s < n; s++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(aq[r*k+p]) * int32(b[p*n+s])
			}
			v := ep.deqScale[r]*float32(acc-ep.corr[r]) + biasAt(ep.bias, r)
			if ep.act && v < 0 {
				v *= ep.slope
			}
			c[r*n+s] = v
		}
	}
}

func biasAt(bias []float32, r int) float32 {
	if bias == nil {
		return 0
	}
	return bias[r]
}

// fillQTest fills deterministic full-range operands: weights sweep the
// whole signed range including ±127, activations the whole unsigned
// range including values > ActQMax, so the u8/s8 operand roles in the
// assembly are exercised at both ends.
func fillQTest(aq []int8, b []uint8) {
	for i := range aq {
		aq[i] = int8(i*37%255 - 127)
	}
	for i := range b {
		b[i] = uint8(i * 101 % 256)
	}
}

// TestQGemmKernelTailShapeParity pins every asm int8 kernel against its
// portable reference twin, bit for bit, over exhaustive m/n/k tail
// shapes and full-range inputs.
func TestQGemmKernelTailShapeParity(t *testing.T) {
	for _, kr := range availableQKernels(t) {
		if kr.kind == qmicroGoExact {
			continue // portable kernel is its own twin
		}
		twin := kr.refTwin()
		ms := []int{1, kr.mr - 1, kr.mr, kr.mr + 1, 2*kr.mr + 1}
		ns := []int{1, kr.nr - 1, kr.nr, kr.nr + 1, kr.nc - 1, kr.nc + 1}
		ks := []int{1, 3, 4, 5, kr.kc - 1, kr.kc, kr.kc + 1, 2*kr.kc + 3}
		for _, m := range ms {
			if m < 1 {
				continue
			}
			for _, n := range ns {
				for _, k := range ks {
					aq := make([]int8, m*k)
					b := make([]uint8, k*n)
					fillQTest(aq, b)
					ep := qtestEpilogue(m)
					pa := make([]int8, qgemmPackedSize(kr, m, k))
					qpackA(kr, m, k, aq, pa)
					got := make([]float32, m*n)
					want := make([]float32, m*n)
					qgemmPackedWith(kr, m, n, k, pa, qdenseB(k, n, b), ep, got)
					qgemmPackedWith(twin, m, n, k, pa, qdenseB(k, n, b), ep, want)
					for i := range want {
						if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
							t.Fatalf("%s vs %s: m=%d n=%d k=%d element %d: %v vs %v",
								kr.name, twin.name, m, n, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestQGemmInt8MatchesNaive checks the full packed pipeline — packers,
// micro-kernel, carry buffer, epilogue — against the dense triple-loop
// reference. Activations stay within the calibrated domain (≤ ActQMax),
// the bytes the quantizer produces; every kernel must agree exactly.
func TestQGemmInt8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {8, 32, 64}, {17, 33, 100},
		{37, 130, 300}, {9, 257, 511}, {64, 96, 576},
	}
	orig := QGemmKernel()
	defer SetQGemmKernel(orig)
	for _, kr := range availableQKernels(t) {
		if _, err := SetQGemmKernel(kr.name); err != nil {
			t.Fatalf("SetQGemmKernel(%s): %v", kr.name, err)
		}
		for _, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2]
			aq := make([]int8, m*k)
			b := make([]uint8, k*n)
			for i := range aq {
				aq[i] = int8(rng.Intn(255) - 127)
			}
			for i := range b {
				b[i] = uint8(rng.Intn(ActQMax + 1)) // in-domain
			}
			ep := qtestEpilogue(m)
			got := make([]float32, m*n)
			want := make([]float32, m*n)
			QGemmInt8(m, n, k, aq, b, ep.deqScale, ep.corr, got)
			qnaiveInt8(m, n, k, aq, b, ep, want)
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("%s: m=%d n=%d k=%d element %d: got %v want %v",
						kr.name, m, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestQGemmKernelDomainAgreement pins cross-geometry agreement: every
// available kernel packs the same operands into its own MR×NR/KC/NC
// blocking, and all of them must return bit-identical results over
// full-range activation bytes [0, 255] — exact int32 accumulation
// leaves no room for a kernel-specific answer.
func TestQGemmKernelDomainAgreement(t *testing.T) {
	ks := availableQKernels(t)
	m, n, k := 37, 130, 300
	rng := rand.New(rand.NewSource(3))
	aq := make([]int8, m*k)
	b := make([]uint8, k*n)
	for i := range aq {
		aq[i] = int8(rng.Intn(255) - 127)
	}
	for i := range b {
		b[i] = uint8(rng.Intn(256))
	}
	ep := qtestEpilogue(m)
	var ref []float32
	for _, kr := range ks {
		pa := make([]int8, qgemmPackedSize(kr, m, k))
		qpackA(kr, m, k, aq, pa)
		got := make([]float32, m*n)
		qgemmPackedWith(kr, m, n, k, pa, qdenseB(k, n, b), ep, got)
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if math.Float32bits(ref[i]) != math.Float32bits(got[i]) {
				t.Fatalf("%s diverges from %s at %d: %v vs %v", kr.name, ks[0].name, i, got[i], ref[i])
			}
		}
	}
}

// TestSetQGemmKernel checks the registry API surface: listing,
// availability, swapping, and rejection of unknown/unsupported names.
func TestSetQGemmKernel(t *testing.T) {
	names := QGemmKernels()
	if len(names) == 0 {
		t.Fatal("no registered int8 kernels")
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	if !seen["qgo"] {
		t.Fatalf("portable qgo kernel missing from %v", names)
	}
	if !QGemmKernelAvailable("qgo") {
		t.Fatal("qgo must be available everywhere")
	}

	orig := QGemmKernel()
	defer SetQGemmKernel(orig)
	prev, err := SetQGemmKernel("qgo")
	if err != nil {
		t.Fatalf("SetQGemmKernel(qgo): %v", err)
	}
	if prev != orig {
		t.Fatalf("prev = %q, want %q", prev, orig)
	}
	if QGemmKernel() != "qgo" {
		t.Fatalf("active = %q after swap", QGemmKernel())
	}
	if _, err := SetQGemmKernel("no-such-kernel"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if QGemmKernel() != "qgo" {
		t.Fatal("failed swap changed the active kernel")
	}
}

// TestForcedQGemmKernelActive validates the RHSD_QGEMM_KERNEL contract
// under the quantized kernel matrix: when the variable names an
// available kernel, that kernel must be active.
func TestForcedQGemmKernelActive(t *testing.T) {
	name, present, honored := RequestedQGemmKernel()
	if !present {
		t.Skip("RHSD_QGEMM_KERNEL not set")
	}
	if !honored {
		if QGemmKernelAvailable(name) {
			t.Fatalf("RHSD_QGEMM_KERNEL=%q available but not honored", name)
		}
		t.Skipf("RHSD_QGEMM_KERNEL=%q unavailable on this host", name)
	}
	if QGemmKernel() != name {
		t.Fatalf("RHSD_QGEMM_KERNEL=%q honored but active kernel is %q", name, QGemmKernel())
	}
}

// TestQGemmKernelDispatchRace hammers concurrent QGemmInt8 calls
// against kernel swaps under the race detector; every result must match
// some registered kernel's output (they are all bit-identical anyway),
// never a torn mix.
func TestQGemmKernelDispatchRace(t *testing.T) {
	ks := availableQKernels(t)
	orig := QGemmKernel()
	defer SetQGemmKernel(orig)

	m, n, k := 16, 64, 128
	aq := make([]int8, m*k)
	b := make([]uint8, k*n)
	for i := range aq {
		aq[i] = int8(i%255 - 127)
	}
	for i := range b {
		b[i] = uint8(i % (ActQMax + 1))
	}
	ep := qtestEpilogue(m)
	want := make([]float32, m*n)
	qnaiveInt8(m, n, k, aq, b, ep, want)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float32, m*n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				QGemmInt8(m, n, k, aq, b, ep.deqScale, ep.corr, got)
				for i := range want {
					if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
						t.Errorf("racy result differs at %d: %v vs %v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := SetQGemmKernel(ks[i%len(ks)].name); err != nil {
			t.Errorf("swap: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestQGemmEpilogueBiasAct checks the fused bias + leaky-ReLU epilogue
// against the naive reference on all kernels.
func TestQGemmEpilogueBiasAct(t *testing.T) {
	m, n, k := 11, 40, 70
	aq := make([]int8, m*k)
	b := make([]uint8, k*n)
	fillQTest(aq, b)
	for i := range b {
		b[i] %= ActQMax + 1
	}
	ep := qtestEpilogue(m)
	ep.bias = make([]float32, m)
	for r := range ep.bias {
		ep.bias[r] = float32(r)*0.5 - 2
	}
	ep.act = true
	ep.slope = 0.05
	want := make([]float32, m*n)
	qnaiveInt8(m, n, k, aq, b, ep, want)
	for _, kr := range availableQKernels(t) {
		pa := make([]int8, qgemmPackedSize(kr, m, k))
		qpackA(kr, m, k, aq, pa)
		got := make([]float32, m*n)
		qgemmPackedWith(kr, m, n, k, pa, qdenseB(k, n, b), ep, got)
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("%s epilogue: element %d got %v want %v", kr.name, i, got[i], want[i])
			}
		}
	}
}

// TestQGemmKernelGeometry pins the registry invariants the packers rely
// on: kc a multiple of the 4-byte k-group, nc a multiple of nr, and the
// register tile within qgemmMaxTile.
func TestQGemmKernelGeometry(t *testing.T) {
	for _, kr := range qgemmKernels.all {
		if kr.kc%4 != 0 {
			t.Errorf("%s: kc=%d not a multiple of 4", kr.name, kr.kc)
		}
		if kr.nc%kr.nr != 0 {
			t.Errorf("%s: nc=%d not a multiple of nr=%d", kr.name, kr.nc, kr.nr)
		}
		if kr.mr*kr.nr > qgemmMaxTile {
			t.Errorf("%s: tile %d×%d exceeds qgemmMaxTile", kr.name, kr.mr, kr.nr)
		}
		if kr.mr > qgemmMaxMR || kr.nr > qgemmMaxNR {
			t.Errorf("%s: mr=%d nr=%d exceed declared maxima", kr.name, kr.mr, kr.nr)
		}
	}
}
