package hsd

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rhsd/internal/guard"
	"rhsd/internal/layout"
	"rhsd/internal/parallel"
	"rhsd/internal/tensor"
)

// TestDetectLayoutCheckedValidates pins Scan's input validation: each
// request a caller can plausibly get wrong returns an ErrBadInput-tagged
// error and no result.
func TestDetectLayoutCheckedValidates(t *testing.T) {
	m := parityModel(t)
	l := layout.New(layout.R(0, 0, 100, 100))
	for _, tc := range []struct {
		name string
		req  ScanRequest
	}{
		{"nil layout", ScanRequest{Window: layout.R(0, 0, 100, 100), Factor: 2}},
		{"empty window", ScanRequest{Layout: l, Window: layout.R(5, 5, 5, 9), Factor: 1}},
		{"unknown precision", ScanRequest{Layout: l, Window: l.Bounds, Precision: "fp16"}},
		{"uncalibrated int8", ScanRequest{Layout: l, Window: l.Bounds, Precision: PrecisionInt8}},
	} {
		if res, err := m.Scan(context.Background(), tc.req); !errors.Is(err, ErrBadInput) || res != nil {
			t.Fatalf("%s: res = %v, err = %v", tc.name, res, err)
		}
	}
}

// TestDetectCheckedConvertsPanics pins Scan's panic boundary.
func TestDetectCheckedConvertsPanics(t *testing.T) {
	m := parityModel(t)
	// Corrupt internal state so the kernel panics (nil anchor set): the
	// boundary must return a *guard.PanicError, not crash the test binary.
	// A one-region window is one megatile, scanned on the caller's
	// goroutine, where guard.Run can recover the panic.
	m.Anchors = nil
	l := layout.New(layout.R(0, 0, m.Config.RegionNM(), m.Config.RegionNM()))
	_, err := m.Scan(context.Background(), ScanRequest{Layout: l, Window: l.Bounds, Factor: 1})
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *guard.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
}

// TestScanWorkerPanicReturnsPanicError pins Scan's panic boundary on the
// scan workers: at two compute workers the four megatiles of quadLayout
// run on worker goroutines, where a kernel panic must come back as a
// *guard.PanicError naming the megatile scan rather than crash the test
// binary, and the model must scan correctly once its state is mended.
func TestScanWorkerPanicReturnsPanicError(t *testing.T) {
	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)
	m := parityModel(t)
	l, win := quadLayout(m.Config)
	req := ScanRequest{Layout: l, Window: win, Factor: 1}
	anchors := m.Anchors
	m.Anchors = nil
	_, err := m.Scan(context.Background(), req)
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *guard.PanicError", err)
	}
	if !strings.Contains(string(pe.Stack), "scanOneMegatile") {
		t.Fatalf("PanicError stack does not name the megatile scan:\n%s", pe.Stack)
	}

	m.Anchors = anchors
	got, err := m.Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parityModel(t).Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDetections(t, "scan after a worker panic", want.Detections, got.Detections)
}

func TestLoadCheckedErrors(t *testing.T) {
	m := parityModel(t)
	if err := m.LoadChecked(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing checkpoint loaded without error")
	}
	corrupt := filepath.Join(t.TempDir(), "corrupt.ckpt")
	if err := os.WriteFile(corrupt, []byte("RHSDCKPT1\xff\xff\xff\xff garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadChecked(corrupt); err == nil {
		t.Fatal("corrupt checkpoint loaded without error")
	}
}

func TestLoadCheckedRoundTrip(t *testing.T) {
	m := parityModel(t)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2 := parityModel(t)
	if err := m2.LoadChecked(path); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(1, InputChannels, m.Config.InputSize, m.Config.InputSize)
	x.RandUniform(rng, 0, 1)
	assertSameDetections(t, "LoadChecked round trip", m.Detect(x), m2.Detect(x))
}

// scanLayout builds the ragged multi-region layout the parity tests use.
func scanLayout(c Config) *layout.Layout {
	regionNM := c.RegionNM()
	l := layout.New(layout.R(0, 0, 2*regionNM+regionNM/3, 2*regionNM+regionNM/5))
	for x := 40; x < l.Bounds.X1-80; x += 150 {
		l.Add(layout.R(x, 30, x+70, l.Bounds.Y1-50))
	}
	return l
}

func TestScanWorkersCapParity(t *testing.T) {
	m := parityModel(t)
	l := scanLayout(m.Config)
	full := detectAtWorkers(8, func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 1) })

	capped := parityModel(t)
	capped.SetScanWorkers(1)
	serial := detectAtWorkers(8, func() []Detection { return capped.DetectLayoutMegatile(l, l.Bounds, 1) })
	assertSameDetections(t, "scanWorkers=1", full, serial)

	capped.SetScanWorkers(2)
	two := detectAtWorkers(8, func() []Detection { return capped.DetectLayoutMegatile(l, l.Bounds, 1) })
	assertSameDetections(t, "scanWorkers=2", full, two)

	capped.SetScanWorkers(0) // back to the default
	def := detectAtWorkers(8, func() []Detection { return capped.DetectLayoutMegatile(l, l.Bounds, 1) })
	assertSameDetections(t, "scanWorkers reset", full, def)
}

func TestCachedReplicasResyncAfterLoad(t *testing.T) {
	// Scan once (populating the replica cache), then load different
	// weights and scan again: the cached replicas must serve the new
	// weights, bit-identical to a fresh model.
	c := TinyConfig()
	c.Seed = 99 // different weights than parityModel
	other, err := NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "other.ckpt")
	if err := other.Save(path); err != nil {
		t.Fatal(err)
	}

	m := parityModel(t)
	l := scanLayout(m.Config)
	detectAtWorkers(4, func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 1) }) // warm the cache
	if err := m.LoadChecked(path); err != nil {
		t.Fatal(err)
	}
	got := detectAtWorkers(4, func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 1) })
	want := detectAtWorkers(4, func() []Detection { return other.DetectLayoutMegatile(l, l.Bounds, 1) })
	assertSameDetections(t, "replica resync", want, got)
}

func TestTrimWorkspaceCascadesToReplicas(t *testing.T) {
	m := parityModel(t)
	l := scanLayout(m.Config)
	detectAtWorkers(4, func() []Detection { return m.DetectLayoutMegatile(l, l.Bounds, 1) })
	if m.TotalWorkspaceFootprint() <= m.WorkspaceFootprint() {
		t.Skip("no replicas were cached (single-CPU run)")
	}
	m.TrimWorkspace(0)
	if got := m.TotalWorkspaceFootprint(); got != 0 {
		t.Fatalf("TotalWorkspaceFootprint = %d after full trim", got)
	}
}
