package tensor

import "testing"

func TestWorkspaceReuseAfterReset(t *testing.T) {
	ws := NewWorkspace()
	b1 := ws.Get(100)
	if len(b1) != 100 {
		t.Fatalf("Get(100) returned len %d", len(b1))
	}
	t1 := ws.Tensor(3, 5)
	if got := t1.Shape(); got[0] != 3 || got[1] != 5 {
		t.Fatalf("Tensor shape = %v", got)
	}
	ws.Reset()

	// Same size classes after Reset → same backing arrays, no growth.
	b2 := ws.Get(100)
	if &b1[0] != &b2[0] {
		t.Error("Get after Reset did not reuse the freed buffer")
	}
	t2 := ws.Tensor(5, 3)
	if t1 != t2 {
		t.Error("Tensor header was not recycled after Reset")
	}
	if got := t2.Shape(); got[0] != 5 || got[1] != 3 {
		t.Fatalf("recycled header shape = %v", got)
	}

	// Steady state: identical request sequence allocates nothing.
	allocs := testing.AllocsPerRun(20, func() {
		ws.Reset()
		_ = ws.Get(100)
		_ = ws.Tensor(5, 3)
		_ = ws.View(b2, 10, 10)
	})
	if allocs != 0 {
		t.Errorf("steady-state workspace use allocated %.0f times per run, want 0", allocs)
	}
}

func TestWorkspaceZeroed(t *testing.T) {
	ws := NewWorkspace()
	s := ws.Get(64)
	for i := range s {
		s[i] = 7
	}
	ws.Reset()
	z := ws.GetZeroed(64)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed[%d] = %v", i, v)
		}
	}
	ws.Reset()
	zt := ws.ZeroTensor(8, 8)
	for i, v := range zt.Data() {
		if v != 0 {
			t.Fatalf("ZeroTensor data[%d] = %v", i, v)
		}
	}
}

func TestWorkspaceNilFallback(t *testing.T) {
	var ws *Workspace
	if got := len(ws.Get(10)); got != 10 {
		t.Fatalf("nil Get len = %d", got)
	}
	tt := ws.Tensor(2, 3)
	if got := tt.Shape(); got[0] != 2 || got[1] != 3 {
		t.Fatalf("nil Tensor shape = %v", got)
	}
	v := ws.View(make([]float32, 6), 3, 2)
	if got := v.Shape(); got[0] != 3 || got[1] != 2 {
		t.Fatalf("nil View shape = %v", got)
	}
	ws.Reset() // must not panic
	if ws.Footprint() != 0 {
		t.Fatal("nil Footprint != 0")
	}
}

func TestWorkspaceViewLengthCheck(t *testing.T) {
	ws := NewWorkspace()
	defer func() {
		if recover() == nil {
			t.Fatal("View with mismatched length did not panic")
		}
	}()
	ws.View(make([]float32, 5), 2, 3)
}

func TestWorkspaceTrim(t *testing.T) {
	ws := NewWorkspace()
	small := ws.Get(100)     // 128-float class
	large := ws.Get(1 << 20) // 1Mi-float class
	_ = large
	ws.Reset()

	if fp := ws.Footprint(); fp != 128+1<<20 {
		t.Fatalf("footprint before trim = %d, want %d", fp, 128+1<<20)
	}
	// A budget above the footprint is a no-op.
	ws.Trim(2 << 20)
	if fp := ws.Footprint(); fp != 128+1<<20 {
		t.Fatalf("over-budget Trim changed footprint to %d", fp)
	}
	// Trimming evicts the largest class first, keeping small classes warm.
	ws.Trim(1 << 10)
	if fp := ws.Footprint(); fp > 1<<10 {
		t.Fatalf("footprint after Trim(1024) = %d, want ≤ 1024", fp)
	}
	if b := ws.Get(100); &b[0] != &small[0] {
		t.Error("Trim evicted the small class; want largest-first eviction")
	}
	ws.Reset()

	// Live buffers are never trimmed.
	live := ws.Get(1 << 16)
	ws.Trim(0)
	if fp := ws.Footprint(); fp < 1<<16 {
		t.Fatalf("Trim(0) released a live buffer: footprint %d", fp)
	}
	live[0] = 3 // must still be usable
	ws.Reset()
	ws.Trim(0)
	if fp := ws.Footprint(); fp != 0 {
		t.Fatalf("Trim(0) after Reset left footprint %d", fp)
	}

	// Nil workspace: no-op, no panic.
	var nil_ *Workspace
	nil_.Trim(0)
}

// TestWorkspaceRelease pins the early-return contract: a released buffer
// serves the next Get of its size class within the same pass, the
// footprint does not grow for it, Reset does not hand it out twice, and
// releasing a foreign or already-released buffer panics.
func TestWorkspaceRelease(t *testing.T) {
	ws := NewWorkspace()
	keep := ws.Get(100)
	col := ws.Get(5000)
	ws.Release(col)
	again := ws.Get(4500) // same size class as col
	if &again[0] != &col[0] {
		t.Fatal("Get after Release did not reuse the released buffer")
	}
	if fp, want := ws.Footprint(), cap(keep)+cap(col); fp != want {
		t.Fatalf("footprint %d floats after release and reuse, want %d", fp, want)
	}
	ws.Reset()
	a, b := ws.Get(5000), ws.Get(5000)
	if &a[0] == &b[0] {
		t.Fatal("Reset handed one buffer out twice")
	}

	mustPanic := func(label string, buf []float32) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Release did not panic", label)
			}
		}()
		ws.Release(buf)
	}
	ws.Release(a)
	mustPanic("double release", a)
	mustPanic("foreign buffer", make([]float32, 8))
	var nilWS *Workspace
	nilWS.Release(make([]float32, 8)) // nil workspace: no-op, like every method

	allocs := testing.AllocsPerRun(20, func() {
		ws.Reset()
		c := ws.Get(5000)
		ws.Release(c)
		_ = ws.Get(5000)
	})
	if allocs != 0 {
		t.Errorf("steady-state Get/Release allocated %.0f times per run, want 0", allocs)
	}
}
