package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// withWorkers runs f under a fixed worker count, restoring the previous
// count afterwards.
func withWorkers(n int, f func()) {
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 64, 1000} {
				hits := make([]int32, n)
				withWorkers(workers, func() {
					For(n, grain, func(start, end int) {
						if start < 0 || end > n || start >= end {
							t.Errorf("workers=%d n=%d grain=%d: bad chunk [%d,%d)", workers, n, grain, start, end)
						}
						for i := start; i < end; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
					})
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForChunkBoundariesIndependentOfWorkers(t *testing.T) {
	// For any worker count ≥ 2 the chunk partition must depend only on
	// (n, grain), never on how many goroutines claim chunks — that, plus
	// per-element determinism inside kernels, is what lets them promise
	// bit-identical results for any RHSD_WORKERS. (With 1 worker For
	// collapses to a single [0,n) chunk, which the kernels treat
	// identically element-wise.)
	collect := func(workers, n, grain int) map[[2]int]bool {
		set := make(map[[2]int]bool)
		var mu int32
		withWorkers(workers, func() {
			For(n, grain, func(start, end int) {
				for !atomic.CompareAndSwapInt32(&mu, 0, 1) {
				}
				set[[2]int{start, end}] = true
				atomic.StoreInt32(&mu, 0)
			})
		})
		return set
	}
	for _, n := range []int{1, 10, 97} {
		for _, grain := range []int{1, 4, 50} {
			// Analytic partition: ceil(n/grain) chunks of grain indices,
			// last one truncated.
			ref := make(map[[2]int]bool)
			for start := 0; start < n; start += grain {
				end := start + grain
				if end > n {
					end = n
				}
				ref[[2]int{start, end}] = true
			}
			for _, workers := range []int{2, 5, 16} {
				got := collect(workers, n, grain)
				if len(got) != len(ref) {
					t.Fatalf("n=%d grain=%d workers=%d: %d chunks, want %d", n, grain, workers, len(got), len(ref))
				}
				for c := range ref {
					if !got[c] {
						t.Fatalf("n=%d grain=%d workers=%d: chunk %v missing", n, grain, workers, c)
					}
				}
			}
			serial := collect(1, n, grain)
			if len(serial) != 1 || !serial[[2]int{0, n}] {
				t.Fatalf("n=%d grain=%d: serial fallback chunks %v, want single [0,%d)", n, grain, serial, n)
			}
		}
	}
}

func TestForSerialFallbackRunsOnCaller(t *testing.T) {
	withWorkers(4, func() {
		calls := 0
		For(5, 10, func(start, end int) { // single chunk → serial
			calls++
			if start != 0 || end != 5 {
				t.Fatalf("expected one chunk [0,5), got [%d,%d)", start, end)
			}
		})
		if calls != 1 {
			t.Fatalf("expected exactly one call, got %d", calls)
		}
	})
}

func TestForNested(t *testing.T) {
	withWorkers(4, func() {
		var total int64
		For(8, 1, func(i0, i1 int) {
			for i := i0; i < i1; i++ {
				For(16, 2, func(j0, j1 int) {
					atomic.AddInt64(&total, int64(j1-j0))
				})
			}
		})
		if total != 8*16 {
			t.Fatalf("nested For covered %d inner indices, want %d", total, 8*16)
		}
	})
}

func TestSetWorkersAndRestore(t *testing.T) {
	prev := SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	if p := SetWorkers(0); p != 3 { // 0 resets to default
		t.Fatalf("SetWorkers returned prev %d, want 3", p)
	}
	if Workers() < 1 {
		t.Fatalf("default worker count %d < 1", Workers())
	}
	SetWorkers(prev)
}

func TestGrainFor(t *testing.T) {
	cases := []struct{ perItem, minWork, want int }{
		{1, 0, 1},
		{0, 100, 100},  // perItem clamps to 1
		{10, 100, 10},  // exact division
		{30, 100, 4},   // rounds up
		{1000, 100, 1}, // heavy items → chunk of one
	}
	for _, c := range cases {
		if got := GrainFor(c.perItem, c.minWork); got != c.want {
			t.Errorf("GrainFor(%d, %d) = %d, want %d", c.perItem, c.minWork, got, c.want)
		}
	}
}

func TestEnvWorkersValidation(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	cpu := runtime.NumCPU()
	cases := []struct {
		env  string
		want int
	}{
		{"7", 7},
		{"abc", cpu},              // non-numeric → NumCPU
		{"-3", cpu},               // negative → NumCPU
		{"0", cpu},                // zero → NumCPU
		{"1e6", cpu},              // not an Atoi integer → NumCPU
		{"999999", maxEnvWorkers}, // oversized → clamp
		{"", cpu},
	}
	for _, c := range cases {
		t.Setenv("RHSD_WORKERS", c.env)
		SetWorkers(0) // re-resolve the default from the environment
		if got := Workers(); got != c.want {
			t.Errorf("RHSD_WORKERS=%q: Workers() = %d, want %d", c.env, got, c.want)
		}
	}
}
