package hsd

import (
	"context"
	"sync"
	"testing"

	"rhsd/internal/layout"
)

// This file is the differential harness for the content-addressed scan
// cache and the incremental rescan: every test reduces to "scan the same
// layout cold, cached and incrementally, and require bit-identical
// detections". The cold path (no cache attached) is the oracle; the
// cached and incremental paths must never be distinguishable from it —
// under trained and untrained weights, across worker counts, at seams,
// and under near-collision layout edits (sub-pixel translations,
// mirrored cells, halo-only changes) engineered to punish any key that
// hashes less than the exact raster bytes.

// quadGeometry returns the window holding exactly 2×2 factor-1 megatiles
// at design overlap, plus the spec, in nm.
func quadGeometry(c Config) (win layout.Rect, spec MegatileSpec) {
	spec = c.Megatile(1)
	w := 2*spec.RegionNM - spec.OverlapNM
	return layout.R(0, 0, w, w), spec
}

// quadLayout builds a 2×2-megatile layout with stripes and one blob in
// each megatile's exclusive interior, positioned so all four megatile
// rasters are byte-distinct (each blob sits at a different tile-relative
// offset).
func quadLayout(c Config) (*layout.Layout, layout.Rect) {
	win, spec := quadGeometry(c)
	r := spec.RegionNM
	w := win.X1
	l := layout.New(win)
	addStripes(l, c)
	lo, hi := r/4, w-r/4
	plantBlob(l, lo, lo, c)
	plantBlob(l, hi, lo, c)
	plantBlob(l, lo, hi, c)
	plantBlob(l, hi, hi, c)
	return l, win
}

// coldThenWarm scans l cold (cache detached) and then twice through the
// given cache, asserting all three results bit-identical and returning
// the cold result. The second cached scan is the all-hits pass.
func coldThenWarm(t *testing.T, m *Model, cache *DetCache, l *layout.Layout, win layout.Rect, factor int, label string) []Detection {
	t.Helper()
	m.SetScanCache(nil)
	cold := m.DetectLayoutMegatile(l, win, factor)
	m.SetScanCache(cache)
	fill := m.DetectLayoutMegatile(l, win, factor)
	warm := m.DetectLayoutMegatile(l, win, factor)
	m.SetScanCache(nil)
	assertSameDetections(t, label+": cold vs cache-fill", cold, fill)
	assertSameDetections(t, label+": cold vs warm", cold, warm)
	return cold
}

// rescan re-scans l through Scan with prev as its Prev and the given
// dirty rects, at prev's window and factor and the view's precision.
func rescan(t *testing.T, m *Model, prev *ScanResult, l *layout.Layout, dirty []layout.Rect) *ScanResult {
	t.Helper()
	res, err := m.Scan(context.Background(), ScanRequest{
		Layout: l, Window: prev.Window(), Factor: prev.Factor(), Prev: prev, Dirty: dirty,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCachedScanBitIdenticalUntrained(t *testing.T) {
	m := parityModel(t)
	cache := NewDetCache(0)
	l, win := quadLayout(m.Config)
	cold := coldThenWarm(t, m, cache, l, win, 1, "untrained")
	if len(cold) == 0 {
		t.Log("untrained model reported no detections; identity still pinned on empty results")
	}
	st := cache.Stats()
	if st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (one per byte-distinct megatile)", st.Misses)
	}
	if st.Hits != 4 {
		t.Fatalf("hits = %d, want 4 (the warm pass)", st.Hits)
	}
}

func TestCachedScanBitIdenticalAcrossWorkerCounts(t *testing.T) {
	m := parityModel(t)
	cache := NewDetCache(0)
	l, win := quadLayout(m.Config)
	m.SetScanCache(nil)
	cold := detectAtWorkers(1, func() []Detection { return m.DetectLayoutMegatile(l, win, 1) })
	m.SetScanCache(cache)
	defer m.SetScanCache(nil)
	for _, workers := range []int{1, 8} {
		got := detectAtWorkers(workers, func() []Detection { return m.DetectLayoutMegatile(l, win, 1) })
		assertSameDetections(t, "cached scan at workers", cold, got)
	}
}

func TestCachedScanBitIdenticalTrainedAtSeam(t *testing.T) {
	m := trainedScanModel(t)
	c := m.Config
	size, seam := twoMegatileWindow(c)
	p := int(c.PitchNM)
	l := layout.New(layout.R(0, 0, size, size))
	addStripes(l, c)
	// One hotspot straddling the vertical seam, one in a megatile
	// interior — the seam clip is kept by both megatiles (slack band) and
	// collapsed by the merge, which must behave identically when one side
	// is a cache hit and the other a fresh pass.
	seamCx := (int(seam) / p) * p
	plantBlob(l, seamCx, size/4, c)
	plantBlob(l, size/4, 3*size/4, c)
	cache := NewDetCache(0)
	defer m.SetScanCache(nil)
	cold := coldThenWarm(t, m, cache, l, layout.R(0, 0, size, size), 2, "trained seam")
	if len(detsAt(cold, float64(seamCx), float64(size/4))) == 0 {
		t.Fatalf("trained model missed the seam hotspot; differential result vacuous")
	}
}

func TestIncrementalRescanBitIdentical(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	l, win := quadLayout(c)
	_, spec := quadGeometry(c)
	r := spec.RegionNM
	w := win.X1

	res := m.ScanLayoutMegatile(l, win, 1)
	if res.TilesScanned != 4 || res.TilesReused != 0 {
		t.Fatalf("cold scan counted %d scanned / %d reused", res.TilesScanned, res.TilesReused)
	}

	// Edit strictly inside the bottom-right megatile's exclusive
	// interior: one new blob, clear of every overlap strip.
	edited := layout.New(win)
	edited.Rects = append(edited.Rects, l.Rects...)
	plantBlob(edited, w-r/2, w-r/2, c)

	dirty := layout.Diff(l, edited)
	if len(dirty) != 1 {
		t.Fatalf("diff %v, want the one added blob", dirty)
	}
	inc := rescan(t, m, res, edited, dirty)
	if inc.TilesScanned != 1 || inc.TilesReused != 3 {
		t.Fatalf("rescan counted %d scanned / %d reused, want 1 / 3", inc.TilesScanned, inc.TilesReused)
	}
	cold := m.DetectLayoutMegatile(edited, win, 1)
	assertSameDetections(t, "incremental vs cold", cold, inc.Detections)

	// The rescan result must itself seed further rescans.
	inc2 := rescan(t, m, inc, edited, nil)
	assertSameDetections(t, "rescan of rescan", cold, inc2.Detections)
}

func TestEmptyDiffRasterizesNothing(t *testing.T) {
	m := parityModel(t)
	l, win := quadLayout(m.Config)
	res := m.ScanLayoutMegatile(l, win, 1)

	layout.ResetRasterizedPixels()
	same := rescan(t, m, res, l, layout.Diff(l, l))
	if px := layout.RasterizedPixels(); px != 0 {
		t.Fatalf("empty diff rasterized %d pixels, want 0", px)
	}
	if same.TilesScanned != 0 || same.TilesReused != 4 {
		t.Fatalf("empty diff scanned %d / reused %d, want 0 / 4", same.TilesScanned, same.TilesReused)
	}
	assertSameDetections(t, "empty diff", res.Detections, same.Detections)
}

func TestDirtyRectOnSeamInvalidatesBothTiles(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	l, win := quadLayout(c)
	_, spec := quadGeometry(c)
	res := m.ScanLayoutMegatile(l, win, 1)

	// A rect straddling the vertical ownership boundary (which runs
	// through the middle of the overlap strip — the slack-band seam) is
	// inside BOTH adjacent megatiles' rasters, so both columns must
	// rescan: 4 of 4 tiles when it spans the window height... keep it
	// short so only the top row's two tiles see it.
	seamX := spec.StrideNM + spec.OverlapNM/2
	p := int(c.PitchNM)
	edited := layout.New(win)
	edited.Rects = append(edited.Rects, l.Rects...)
	edited.Add(layout.R(seamX-p, spec.RegionNM/4, seamX+p, spec.RegionNM/4+p))

	dirty := layout.Diff(l, edited)
	inc := rescan(t, m, res, edited, dirty)
	if inc.TilesScanned != 2 || inc.TilesReused != 2 {
		t.Fatalf("seam edit scanned %d / reused %d, want 2 / 2", inc.TilesScanned, inc.TilesReused)
	}
	assertSameDetections(t, "seam edit", m.DetectLayoutMegatile(edited, win, 1), inc.Detections)
}

func TestDirtyRectInHaloInvalidatesOwningTile(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	l, win := quadLayout(c)
	_, spec := quadGeometry(c)
	res := m.ScanLayoutMegatile(l, win, 1)

	// An edit in the overlap strip is halo context for both adjacent
	// megatiles even when it sits past one side's ownership boundary: the
	// right tile OWNS clips there, and the left tile's raster still
	// contains the bytes. Both must be invalidated — a scheme that only
	// invalidated the owner would serve the left tile a stale raster's
	// detections near its edge.
	p := int(c.PitchNM)
	// Just inside the left tile's raster edge: x in [RegionNM - pitch,
	// RegionNM), squarely past the seam midpoint, owned by the right tile.
	edited := layout.New(win)
	edited.Rects = append(edited.Rects, l.Rects...)
	edited.Add(layout.R(spec.RegionNM-p, spec.RegionNM/4, spec.RegionNM, spec.RegionNM/4+p))

	inc := rescan(t, m, res, edited, layout.Diff(l, edited))
	if inc.TilesScanned != 2 || inc.TilesReused != 2 {
		t.Fatalf("halo edit scanned %d / reused %d, want 2 / 2", inc.TilesScanned, inc.TilesReused)
	}
	assertSameDetections(t, "halo edit", m.DetectLayoutMegatile(edited, win, 1), inc.Detections)

	// Control: an edit in a megatile's exclusive interior (outside every
	// overlap strip) invalidates exactly that tile.
	interior := layout.New(win)
	interior.Rects = append(interior.Rects, l.Rects...)
	interior.Add(layout.R(spec.RegionNM/2, spec.RegionNM/2, spec.RegionNM/2+p, spec.RegionNM/2+p))
	inc2 := rescan(t, m, res, interior, layout.Diff(l, interior))
	if inc2.TilesScanned != 1 || inc2.TilesReused != 3 {
		t.Fatalf("interior edit scanned %d / reused %d, want 1 / 3", inc2.TilesScanned, inc2.TilesReused)
	}
	assertSameDetections(t, "interior edit", m.DetectLayoutMegatile(interior, win, 1), inc2.Detections)
}

func TestWeightChangeInvalidatesRescan(t *testing.T) {
	m := parityModel(t)
	l, win := quadLayout(m.Config)
	res := m.ScanLayoutMegatile(l, win, 1)

	// Mutate one weight the way a training step or Load would; the rescan
	// must notice (fresh version hash) and degrade to a full scan even
	// with an empty diff — stale per-tile results are as wrong as stale
	// cache entries.
	w := m.Params()[0].W.Data()
	w[0] += 0.25
	inc := rescan(t, m, res, l, nil)
	if inc.TilesScanned != 4 || inc.TilesReused != 0 {
		t.Fatalf("post-weight-change rescan scanned %d / reused %d, want 4 / 0", inc.TilesScanned, inc.TilesReused)
	}
	assertSameDetections(t, "post-weight-change", m.DetectLayoutMegatile(l, win, 1), inc.Detections)
}

// TestAdversarialNearCollisions scans near-identical layout pairs through
// one shared cache and requires each warm scan bit-identical to its cold
// scan. Every variant is engineered to collide under a sloppier key:
// sub-pixel translation (same shapes, shifted under the pixel-centre
// sampling), mirrored cells (same rect multiset geometry statistics),
// and halo-only edits (identical owned interiors, different halo bytes).
func TestAdversarialNearCollisions(t *testing.T) {
	m := parityModel(t)
	c := m.Config
	base, win := quadLayout(c)
	_, spec := quadGeometry(c)
	p := int(c.PitchNM)
	w := win.X1

	variants := map[string]*layout.Layout{}

	subpx := layout.New(win)
	for _, r := range base.Rects {
		subpx.Add(layout.R(r.X0+p/2, r.Y0, r.X1+p/2, r.Y1))
	}
	variants["subpixel translate"] = subpx

	mirror := layout.New(win)
	for _, r := range base.Rects {
		mirror.Add(layout.R(w-r.X1, r.Y0, w-r.X0, r.Y1))
	}
	variants["mirrored cells"] = mirror

	haloEdit := layout.New(win)
	haloEdit.Rects = append(haloEdit.Rects, base.Rects...)
	haloEdit.Add(layout.R(spec.StrideNM, spec.RegionNM/2, spec.StrideNM+p, spec.RegionNM/2+p))
	variants["halo-only edit"] = haloEdit

	cache := NewDetCache(0)
	defer m.SetScanCache(nil)
	coldThenWarm(t, m, cache, base, win, 1, "base")
	for name, v := range variants {
		coldThenWarm(t, m, cache, v, win, 1, name)
	}
}

// TestCacheConcurrencyHammer (satellite: run with -race) drives one
// shared cache from several goroutines, each scanning through its own
// model clone, and then checks the books exactly: the four distinct
// megatile rasters produce exactly four misses ever, every post-warm
// lookup is a hit, and every goroutine's detections are bit-identical to
// the reference — torn or aliased Detection slices would differ (and
// trip the race detector).
func TestCacheConcurrencyHammer(t *testing.T) {
	base := parityModel(t)
	cache := NewDetCache(0)
	l, win := quadLayout(base.Config)
	base.SetScanWorkers(1)
	base.SetScanCache(cache)
	defer base.SetScanCache(nil)

	ref := base.DetectLayoutMegatile(l, win, 1)
	if st := cache.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("warm scan stats %+v, want 4 misses / 0 hits", st)
	}

	const goroutines, repeats = 3, 2
	results := make([][][]Detection, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		mg, err := base.Clone() // inherits the shared cache
		if err != nil {
			t.Fatal(err)
		}
		mg.SetScanWorkers(1)
		go func(g int, mg *Model) {
			defer wg.Done()
			for i := 0; i < repeats; i++ {
				results[g] = append(results[g], mg.DetectLayoutMegatile(l, win, 1))
			}
		}(g, mg)
	}
	wg.Wait()

	for g := range results {
		for i, got := range results[g] {
			if len(got) != len(ref) {
				t.Fatalf("goroutine %d scan %d: %d detections, want %d", g, i, len(got), len(ref))
			}
			for j := range got {
				if got[j] != ref[j] {
					t.Fatalf("goroutine %d scan %d detection %d: %+v, want %+v", g, i, j, got[j], ref[j])
				}
			}
		}
	}
	st := cache.Stats()
	if st.Misses != 4 {
		t.Fatalf("misses grew to %d; identical rasters recomputed", st.Misses)
	}
	wantHits := int64(goroutines * repeats * 4)
	if st.Hits != wantHits || st.Shared != 0 {
		t.Fatalf("hits %d / shared %d, want exactly %d / 0 (every post-warm lookup hits)", st.Hits, st.Shared, wantHits)
	}
}
