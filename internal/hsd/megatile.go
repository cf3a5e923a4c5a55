package hsd

import (
	"rhsd/internal/layout"
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
)

// This file implements the layout scan: the layout is cut into megatiles
// of Factor×Factor regions, each rasterized once and pushed through a
// single fully-convolutional forward pass whose CPN output covers Factor²
// regions' worth of layout. At Factor 1 this is a region-by-region scan;
// larger factors stop recomputing backbone features in every overlap band
// and paying per-region dispatch, anchor decode and rasterization
// overhead. Megatiles are the unit of work for the parallel scan;
// seams are handled by a halo-ownership rule (see seamBoundaries) plus the
// cross-megatile h-NMS merge. DESIGN.md §11 documents the halo math and
// the bit-identity caveat at megatile borders.

// MegatileSpec describes the scan geometry for one megatile factor.
type MegatileSpec struct {
	// Factor is the number of nominal regions per megatile side.
	Factor int
	// PxSize is the megatile raster side in pixels (Factor × InputSize).
	PxSize int
	// RegionNM is the physical megatile side (Factor × Config.RegionNM).
	RegionNM int
	// OverlapNM is the seam overlap between adjacent megatiles: twice the
	// halo, so a clip owned by either neighbour sits at least one halo
	// from the edge of the megatile that computed it.
	OverlapNM int
	// StrideNM is the scan stride (RegionNM − OverlapNM).
	StrideNM int
}

// Megatile returns the scan geometry for the given factor (clamped to at
// least 1).
func (c Config) Megatile(factor int) MegatileSpec {
	if factor < 1 {
		factor = 1
	}
	spec := MegatileSpec{
		Factor:    factor,
		PxSize:    factor * c.InputSize,
		RegionNM:  factor * c.RegionNM(),
		OverlapNM: 2 * c.HaloNM(),
	}
	spec.StrideNM = spec.RegionNM - spec.OverlapNM
	if spec.StrideNM <= 0 {
		spec.StrideNM = spec.RegionNM
	}
	return spec
}

// megatileFactorCap clamps a requested factor so one megatile is no
// larger than the scan window needs: scanning a half-region window with a
// 4× megatile would spend 98% of the raster on padding.
func megatileFactorCap(c Config, window layout.Rect, factor int) int {
	maxDim := window.W()
	if window.H() > maxDim {
		maxDim = window.H()
	}
	fit := (maxDim + c.RegionNM() - 1) / c.RegionNM()
	if fit < 1 {
		fit = 1
	}
	if factor > fit {
		factor = fit
	}
	if factor < 1 {
		factor = 1
	}
	return factor
}

// seamBoundaries returns the ownership boundaries between consecutive
// megatiles along one axis: the midpoint of each overlap strip. A clip
// centre v is owned by megatile i when boundaries[i-1] <= v <
// boundaries[i] (with virtual ±∞ at the window ends), so every centre has
// exactly one owner. Because the overlap is two halos wide, the owner
// sees its clip at least one halo away from the megatile edge that
// truncated its context.
func seamBoundaries(origins []int, region int) []float64 {
	b := make([]float64, len(origins)-1)
	for i := range b {
		b[i] = float64(origins[i+1]+origins[i]+region) / 2
	}
	return b
}

// ownershipSlackNM is the tolerance band around each seam boundary,
// in which BOTH adjacent megatiles keep their detections. Strict
// half-open ownership of the clip centre can silently drop a hotspot
// sitting exactly on a boundary: the two megatiles compute its centre
// from rasters with different borders, and when regression jitter puts
// each centre on the *other* side of the boundary, both disclaim it.
// Within the slack band the duplicates are instead kept and collapsed by
// the cross-megatile h-NMS (their core IoU is far above the suppression
// threshold), so a boundary hotspot is reported exactly once as long as
// the two localizations differ by less than half a halo — a quarter
// clip, well above observed cross-context jitter of one or two pixels.
func ownershipSlackNM(c Config) float64 { return float64(c.HaloNM()) / 2 }

// keptBy reports whether coordinate v belongs to megatile i's expanded
// ownership interval [boundaries[i-1]-slack, boundaries[i]+slack), with
// virtual ±∞ at the window ends.
func keptBy(boundaries []float64, v float64, i int, slack float64) bool {
	if i > 0 && v < boundaries[i-1]-slack {
		return false
	}
	if i < len(boundaries) && v >= boundaries[i]+slack {
		return false
	}
	return true
}

// RegionRaster rasterizes a layout's bounds into the detector's
// two-channel input tensor of px×px pixels — MakeSample's raster step
// generalized to megatile sizes. Each layout window is rasterized exactly
// once per megatile, so only the overlap strips between megatiles are
// rasterized twice.
func RegionRaster(l *layout.Layout, c Config, px int) *tensor.Tensor {
	img := tensor.New(1, InputChannels, px, px)
	fillRegionRaster(img.Data(), nil, l, c, px)
	return img
}

// regionRaster is RegionRaster into the pass state's raster buffers,
// which the scan reuses megatile after megatile. The tensor is valid
// until the next regionRaster or TrimWorkspace call on m.
func (m *Model) regionRaster(l *layout.Layout, px int) *tensor.Tensor {
	if m.raster == nil || m.raster.Dim(2) != px {
		m.raster = tensor.New(1, InputChannels, px, px)
	}
	m.mask = fillRegionRaster(m.raster.Data(), m.mask, l, m.Config, px)
	return m.raster
}

// fillRegionRaster writes RegionRaster's pixels into img (2·px·px
// floats), rasterizing l's bounds through mask's memory, and returns the
// mask buffer for reuse. The raster may deviate by a pixel from px when
// region and pitch don't divide exactly; the overlap is copied. The
// second channel is 1 (all space) and overwritten where metal rasters.
func fillRegionRaster(img, mask []float32, l *layout.Layout, c Config, px int) []float32 {
	mask, h, w := l.RasterizeInto(mask, l.Bounds, c.PitchNM)
	metal, space := img[:px*px], img[px*px:2*px*px]
	clear(metal)
	for i := range space {
		space[i] = 1
	}
	for y := 0; y < minInt(h, px); y++ {
		for x := 0; x < minInt(w, px); x++ {
			v := mask[y*w+x]
			metal[y*px+x] = v
			space[y*px+x] = 1 - v
		}
	}
	return mask
}

// ScanResult is one megatile scan's output plus the state an incremental
// rescan needs: the scan geometry and the per-megatile post-ownership
// detections, each valid for exactly the raster its megatile consumed.
// Treat a ScanResult as immutable once returned — RescanLayoutMegatile
// shares clean tiles' slices between the previous and next result.
type ScanResult struct {
	// Detections is the merged scan output in nanometre coordinates
	// relative to the scan window origin (what DetectLayoutMegatile
	// returns).
	Detections []Detection
	// TilesScanned and TilesReused count this scan's megatiles by fate;
	// a cold scan has TilesReused == 0. Reuse here means the incremental
	// clean-tile path — cache hits inside scanned tiles are counted by
	// the cache's own telemetry, not per ScanResult.
	TilesScanned, TilesReused int

	window  layout.Rect
	spec    MegatileSpec
	perTile [][]ScoredClip // post-ownership, window-relative nm clips
	version [32]byte       // weights version the scan ran under
}

// Window returns the scan window (canonical) this result covers.
func (r *ScanResult) Window() layout.Rect { return r.window }

// Factor returns the effective (clamped) megatile factor used.
func (r *ScanResult) Factor() int { return r.spec.Factor }

// megatile identifies one scan work item: its nm origin and grid index.
type megatile struct{ x, y, ix, iy int }

// tileRect returns the megatile's full raster footprint in chip
// coordinates. The overlap strips — the halo bands — are inside this
// rect by construction, so overlap against it is the complete
// invalidation predicate for incremental rescans: no edit outside the
// rect can change any byte of the megatile's raster.
func (t megatile) tileRect(spec MegatileSpec) layout.Rect {
	return layout.R(t.x, t.y, t.x+spec.RegionNM, t.y+spec.RegionNM)
}

// megatileGrid lays out the scan geometry for a window: seam ownership
// boundaries and the row-major work list.
func megatileGrid(spec MegatileSpec, window layout.Rect) (xb, yb []float64, tiles []megatile) {
	ys := tileOrigins(window.Y0, window.Y1, spec.RegionNM, spec.StrideNM)
	xs := tileOrigins(window.X0, window.X1, spec.RegionNM, spec.StrideNM)
	tiles = make([]megatile, 0, len(ys)*len(xs))
	for iy, y := range ys {
		for ix, x := range xs {
			tiles = append(tiles, megatile{x, y, ix, iy})
		}
	}
	return seamBoundaries(xs, spec.RegionNM), seamBoundaries(ys, spec.RegionNM), tiles
}

// scanOneMegatile rasterizes one megatile, runs the forward pass (through
// the cache when useCache), applies the halo-ownership filter and returns
// the surviving clips in window-relative nanometre coordinates. sp, when
// non-nil, is the request-trace span for this megatile; it receives the
// tile coordinates and the cache outcome as attributes.
func (m *Model) scanOneMegatile(mw *Model, l *layout.Layout, t megatile, spec MegatileSpec,
	window layout.Rect, xb, yb []float64, version [32]byte, useCache bool, sp *telemetry.TraceSpan) []ScoredClip {
	c := m.Config
	raster := mw.regionRaster(l.Window(t.tileRect(spec)), spec.PxSize)
	var clips []ScoredClip
	slack := ownershipSlackNM(c)
	dets, outcome := m.cachedDetect(mw, raster, version, useCache)
	if sp != nil {
		sp.SetAttr("ix", int64(t.ix))
		sp.SetAttr("iy", int64(t.iy))
		sp.SetAttr("x_nm", int64(t.x))
		sp.SetAttr("y_nm", int64(t.y))
		sp.SetAttrStr("cache", outcome.String())
	}
	for _, d := range dets {
		scaled := d.Clip.Scale(c.PitchNM)
		clipNM := scaled.Translate(float64(t.x), float64(t.y))
		// Halo ownership: clips centred past the overlap midpoint (plus
		// the boundary slack band) are deferred to the neighbouring
		// megatile, which computes them with at least a halo of real
		// context on every side; in-band duplicates are collapsed by the
		// final h-NMS.
		if !keptBy(xb, clipNM.CX(), t.ix, slack) || !keptBy(yb, clipNM.CY(), t.iy, slack) {
			continue
		}
		// Window-relative coordinates are produced with ONE float add per
		// axis from the exact integer offset t.x−window.X0. Translating
		// the chip-absolute clipNM by −window.X0 instead would round twice
		// ((clip+t.x)+(−window.X0) vs clip+(t.x−window.X0)) and drift an
		// ulp apart from a plain single-raster Detect on odd-origin windows
		// (TestMegatileDegenerateWindowsMatchPerTile).
		clipWin := scaled.Translate(float64(t.x-window.X0), float64(t.y-window.Y0))
		clips = append(clips, ScoredClip{Clip: clipWin, Score: d.Score})
	}
	return clips
}

// mergeMegatiles concatenates per-megatile clips in row-major order and
// applies the cross-megatile h-NMS — the merge is identical whether a
// tile's clips came from a forward pass, a cache hit or an incremental
// reuse, which is what makes all three paths bit-identical.
func (m *Model) mergeMegatiles(perTile [][]ScoredClip) []Detection {
	var all []ScoredClip
	for _, clips := range perTile {
		all = append(all, clips...)
	}
	sp := m.stageSpan(StageHNMS)
	merged := m.nms(all)
	sp.End()
	out := make([]Detection, len(merged))
	for i, s := range merged {
		out[i] = Detection{Clip: s.Clip, Score: s.Score}
	}
	return out
}

// scanMegatiles is the one megatile scan core: DetectLayoutMegatile,
// ScanLayoutMegatile and RescanLayoutMegatile all run through it. A cold
// scan is a rescan in which every megatile is dirty: with prev == nil
// every megatile is rasterized and detected (through the cache when one
// is attached); with prev, a megatile whose raster footprint — halo bands
// included, see tileRect — overlaps no dirty rect reuses prev's retained
// clips instead. Either way every megatile's clips enter the same
// row-major merge, which is what makes cold, cached and incremental scans
// bit-identical. version is the weights version the scan runs under; it
// keys the cache and is recorded for a later rescan.
func (m *Model) scanMegatiles(l *layout.Layout, window layout.Rect, factor int, version [32]byte, prev *ScanResult, dirty []layout.Rect) *ScanResult {
	c := m.Config
	window = window.Canon()
	spec := c.Megatile(megatileFactorCap(c, window, factor))
	xb, yb, tiles := megatileGrid(spec, window)

	res := &ScanResult{
		window:  window,
		spec:    spec,
		version: version,
		perTile: make([][]ScoredClip, len(tiles)),
	}
	dirtyIdx := make([]int, 0, len(tiles))
	for i, t := range tiles {
		if prev != nil && !layout.AnyDirty(dirty, t.tileRect(spec)) {
			res.perTile[i] = prev.perTile[i]
		} else {
			dirtyIdx = append(dirtyIdx, i)
		}
	}
	res.TilesScanned = len(dirtyIdx)
	res.TilesReused = len(tiles) - len(dirtyIdx)

	tr := m.trace
	var scanSpan *telemetry.TraceSpan
	if tr != nil {
		if prev == nil {
			scanSpan = tr.StartSpan(m.tspan, "scan")
			scanSpan.SetAttr("factor", int64(spec.Factor))
			scanSpan.SetAttr("megatiles", int64(len(tiles)))
		} else {
			scanSpan = tr.StartSpan(m.tspan, "rescan")
			scanSpan.SetAttr("factor", int64(spec.Factor))
			scanSpan.SetAttr("megatiles_dirty", int64(res.TilesScanned))
			scanSpan.SetAttr("megatiles_reused", int64(res.TilesReused))
		}
		prevSpan := m.tspan
		m.tspan = scanSpan
		defer func() {
			m.tspan = prevSpan
			tr.EndSpan(scanSpan)
		}()
	}

	useCache := m.cache != nil
	m.scanReplicated(len(dirtyIdx), func(mw *Model, w, j int) {
		i := dirtyIdx[j]
		wt := beginWorkTrace(tr, scanSpan, mw, w)
		res.perTile[i] = m.scanOneMegatile(mw, l, tiles[i], spec, window, xb, yb, version, useCache, wt.span)
		wt.end(tr)
	})

	res.Detections = m.mergeMegatiles(res.perTile)
	if ins := m.ins; ins != nil {
		ins.MegatilesScanned.Add(int64(res.TilesScanned))
		ins.MegatilesReused.Add(int64(res.TilesReused))
		ins.WorkspaceBytes.Set(int64(m.TotalWorkspaceFootprint()) * 4)
	}
	return res
}

// DetectLayoutMegatile scans an arbitrarily large layout window in
// megatiles of factor×factor regions: each megatile is rasterized once
// and detected in a single shape-polymorphic forward pass, then
// detections are filtered by the halo-ownership rule (a clip whose centre
// falls inside the seam overlap past the midpoint — beyond the boundary
// slack band, see ownershipSlackNM — is deferred to the neighbouring
// megatile that sees it with more context) and merged with cross-megatile
// h-NMS. Detections are returned in nanometre coordinates relative to the
// window origin.
//
// Megatiles are the unit of work for the parallel scan: each of up to
// parallel.Workers() goroutines drives its own view of the model (see
// Clone) whose workspace grows to the megatile shape. Per-megatile
// results land in a slice indexed by megatile and are concatenated in
// row-major order before the final h-NMS, so the output is bit-identical
// to a serial scan for every worker count.
//
// With a cache attached (SetScanCache) each megatile's forward pass is
// looked up by raster content first; the merge is unchanged, so cached
// and cold scans are bit-identical (pinned by the differential suite in
// cache_diff_test.go). The weights are hashed for the cache key only
// when a cache is attached.
//
// factor < 1 requests 1; factors larger than the window needs are clamped
// (so DetectLayoutMegatile on a sub-region window degrades gracefully to
// one region-sized pass). Factor 1 scans the window region by region,
// adjacent regions overlapping by two halos; at larger factors the seams
// between those regions do not exist inside a megatile at all — the
// paper's region-over-clip argument applied one level up.
func (m *Model) DetectLayoutMegatile(l *layout.Layout, window layout.Rect, factor int) []Detection {
	var version [32]byte
	if m.cache != nil {
		version = m.WeightsVersion()
	}
	return m.scanMegatiles(l, window, factor, version, nil, nil).Detections
}

// ScanLayoutMegatile is DetectLayoutMegatile returning the full scan
// state: identical detections, plus the per-megatile results, scan
// geometry and weights version an incremental rescan needs. Callers that
// re-scan evolving layouts (the serving daemon's /detect?since= path, DFM
// loops) keep the ScanResult and feed it to RescanLayoutMegatile with the
// next revision's dirty rects.
func (m *Model) ScanLayoutMegatile(l *layout.Layout, window layout.Rect, factor int) *ScanResult {
	return m.scanMegatiles(l, window, factor, m.WeightsVersion(), nil, nil)
}

// RescanLayoutMegatile re-scans a layout after an edit, reusing every
// megatile of prev whose raster cannot have changed: a megatile is
// re-rasterized (and re-detected, through the cache when attached) only
// when its full raster footprint — halo bands included, see tileRect —
// overlaps a dirty rect. dirty is the changed-region set from
// layout.Diff(oldLayout, newLayout); l is the NEW layout. The scan window
// and factor are prev's.
//
// Reused megatiles contribute their retained post-ownership clips to the
// same row-major merge a cold scan performs, so the result is
// bit-identical to ScanLayoutMegatile(l, prev.Window(), prev.Factor())
// whenever dirty covers the actual layout difference (the differential
// suite pins this; layout.Diff guarantees it by construction). An empty
// dirty set rasterizes zero megatiles.
//
// The weights version is re-hashed on every rescan: if the model was
// re-trained or re-loaded since prev, nothing is reusable and the call
// degrades to a full scan. prev must come from ScanLayoutMegatile or
// RescanLayoutMegatile.
func (m *Model) RescanLayoutMegatile(prev *ScanResult, l *layout.Layout, dirty []layout.Rect) *ScanResult {
	if prev == nil || prev.perTile == nil {
		panic("hsd: RescanLayoutMegatile needs a ScanResult from ScanLayoutMegatile")
	}
	window, factor := prev.window, prev.spec.Factor
	version := m.WeightsVersion()
	if version != prev.version {
		prev = nil // new weights: every megatile is dirty
	}
	return m.scanMegatiles(l, window, factor, version, prev, dirty)
}

// AutoMegatileFactor picks the largest megatile factor whose predicted
// inference workspace fits budgetBytes, capped by what the window needs.
// Activation memory is linear in raster area, so factor f costs ≈ f² of
// one region's footprint (regionWorkspaceBytes). The answer depends only
// on the configuration, the window and the budget — never on what the
// model scanned before.
func (m *Model) AutoMegatileFactor(window layout.Rect, budgetBytes int64) int {
	perRegion := m.regionWorkspaceBytes()
	factor := 1
	fit := megatileFactorCap(m.Config, window.Canon(), 1<<20)
	for factor < fit && perRegion*int64(factor+1)*int64(factor+1) <= budgetBytes {
		factor++
	}
	return factor
}

// regionWorkspaceBytes is the workspace one nominal region's Detect
// draws, measured once per model by a pass over an empty region on a
// fresh arena. The model's own arena is set aside because it keeps every
// buffer of earlier, larger passes; its instruments and trace are set
// aside because the probe is not a detection.
func (m *Model) regionWorkspaceBytes() int64 {
	if m.regionBytes > 0 {
		return m.regionBytes
	}
	c := m.Config
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	for i := c.InputSize * c.InputSize; i < 2*c.InputSize*c.InputSize; i++ {
		x.Data()[i] = 1 // all space, matching an empty region's raster
	}
	ws, ins, tr := m.ws, m.ins, m.trace
	defer func() { m.ws, m.ins, m.trace = ws, ins, tr }()
	m.ws, m.ins, m.trace = tensor.NewWorkspace(), nil, nil
	m.Detect(x)
	m.regionBytes = int64(m.ws.Footprint()) * 4 // float32 bytes
	return m.regionBytes
}
