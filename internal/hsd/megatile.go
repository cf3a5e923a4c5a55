package hsd

import (
	"context"

	"rhsd/internal/guard"
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
// Treat a ScanResult as immutable once returned — a Scan with it as
// ScanRequest.Prev shares clean tiles' slices between the two results.
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
	version [32]byte       // weights version (precision included) the scan ran under
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

// scanOneMegatile rasterizes one megatile, runs the forward pass at
// precision prec (through the cache when one is attached), applies the
// halo-ownership filter and returns the surviving clips in
// window-relative nanometre coordinates. sp, when non-nil, is the
// request-trace span for this megatile; it receives the tile coordinates
// and the cache outcome as attributes.
func (m *Model) scanOneMegatile(mw *Model, l *layout.Layout, t megatile, spec MegatileSpec,
	window layout.Rect, xb, yb []float64, prec string, version [32]byte, sp *telemetry.TraceSpan) []ScoredClip {
	c := m.Config
	raster := mw.regionRaster(l.Window(t.tileRect(spec)), spec.PxSize)
	var clips []ScoredClip
	slack := ownershipSlackNM(c)
	dets, outcome := m.cachedDetect(mw, raster, prec, version)
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
// reuse, which is what makes all three paths bit-identical. Its h-NMS
// span parents under the scan span of trace tr.
func (m *Model) mergeMegatiles(perTile [][]ScoredClip, tr *telemetry.Trace, scanSpan *telemetry.TraceSpan) []Detection {
	var all []ScoredClip
	for _, clips := range perTile {
		all = append(all, clips...)
	}
	sp := m.stageSpanUnder(StageHNMS, tr, scanSpan)
	merged := m.nms(all)
	sp.End()
	out := make([]Detection, len(merged))
	for i, s := range merged {
		out[i] = Detection{Clip: s.Clip, Score: s.Score}
	}
	return out
}

// scanMegatiles is the one megatile scan core: Scan, DetectLayoutMegatile
// and ScanLayoutMegatile all run through it. A cold scan is a rescan in
// which every megatile is dirty: with prev == nil every megatile is
// rasterized and detected (through the cache when one is attached); with
// prev, a megatile whose raster footprint — halo bands included, see
// tileRect — overlaps no dirty rect reuses prev's retained clips instead.
// prev is reused only if its window, effective factor and weights
// version equal this scan's; otherwise every megatile is dirty. Either
// way every megatile's clips enter the same row-major merge, which is
// what makes cold, cached and incremental scans bit-identical. The trunk
// runs at precision prec; version is the weights version for prec, which
// keys the cache and is recorded for a later rescan.
//
// ctx is checked before each megatile is claimed (scanReplicated). If it
// ends the scan early, scanMegatiles merges nothing and returns ctx's
// error. A trace on ctx gets a scan span under its root, with one
// megatile span per scanned megatile.
func (m *Model) scanMegatiles(ctx context.Context, l *layout.Layout, window layout.Rect, factor int,
	prec string, version [32]byte, prev *ScanResult, dirty []layout.Rect) (*ScanResult, error) {
	c := m.Config
	window = window.Canon()
	spec := c.Megatile(megatileFactorCap(c, window, factor))
	xb, yb, tiles := megatileGrid(spec, window)
	if prev != nil && (prev.window != window || prev.spec.Factor != spec.Factor || prev.version != version) {
		prev = nil // a different scan: every megatile is dirty
	}

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

	tr := telemetry.TraceFromContext(ctx)
	var scanSpan *telemetry.TraceSpan
	if tr != nil {
		if prev == nil {
			scanSpan = tr.StartSpan(tr.Root(), "scan")
			scanSpan.SetAttr("factor", int64(spec.Factor))
			scanSpan.SetAttr("megatiles", int64(len(tiles)))
		} else {
			scanSpan = tr.StartSpan(tr.Root(), "rescan")
			scanSpan.SetAttr("factor", int64(spec.Factor))
			scanSpan.SetAttr("megatiles_dirty", int64(res.TilesScanned))
			scanSpan.SetAttr("megatiles_reused", int64(res.TilesReused))
		}
		defer tr.EndSpan(scanSpan)
	}

	err := m.scanReplicated(ctx, len(dirtyIdx), func(mw *Model, w, j int) {
		i := dirtyIdx[j]
		sp := mw.beginWork(tr, scanSpan, w)
		res.perTile[i] = m.scanOneMegatile(mw, l, tiles[i], spec, window, xb, yb, prec, version, sp)
		mw.endWork(tr, sp)
	})
	if err != nil {
		scanSpan.SetAttrStr("outcome", "cancelled")
		return nil, err
	}

	res.Detections = m.mergeMegatiles(res.perTile, tr, scanSpan)
	if ins := m.ins; ins != nil {
		ins.MegatilesScanned.Add(int64(res.TilesScanned))
		ins.MegatilesReused.Add(int64(res.TilesReused))
		ins.WorkspaceBytes.Set(int64(m.TotalWorkspaceFootprint()) * 4)
	}
	return res, nil
}

// ScanRequest is one layout scan for Scan: its arguments, all of them
// values the scan only reads.
type ScanRequest struct {
	// Layout is the layout to scan and Window the part of it, in nm.
	Layout *layout.Layout
	Window layout.Rect
	// Factor is the megatile factor: < 1 requests 1, and factors larger
	// than the window needs are clamped.
	Factor int
	// Precision is the trunk's numeric path for this scan: PrecisionFP32,
	// PrecisionInt8 (after CalibrateInt8), or "" for the view's own
	// (SetPrecision).
	Precision string
	// Prev is an earlier result to rescan incrementally, and Dirty the
	// rects changed since Prev's layout — layout.Diff(old, Layout). A
	// megatile whose raster footprint overlaps no dirty rect reuses
	// Prev's result; nil Dirty reuses every megatile. Prev is not reused
	// at all when its window, effective factor or weights version
	// (precision included) differs from this scan's.
	Prev  *ScanResult
	Dirty []layout.Rect
}

// Scan is the checked, cancellable layout scan: the megatile scan of
// DetectLayoutMegatile behind input validation, a panic boundary and a
// context, returning the full ScanResult.
//
// A nil layout, an empty window, an unknown precision and int8 before
// CalibrateInt8 return an ErrBadInput-tagged error. A panic in the scan
// comes back as a *guard.PanicError (only a panic on the calling
// goroutine can be recovered; a scan with one megatile or one scan
// worker runs there entirely).
//
// ctx is checked before each megatile is claimed, so a deadline or a
// cancellation stops the scan at the next megatile boundary, with the
// megatiles in flight finishing first. A scan that skipped any megatile
// returns ctx's error and no result. Cache entries of the megatiles that
// finished stay: they are complete results. A trace on ctx
// (telemetry.ContextWithTrace) receives the scan's span tree under its
// root; a stopped scan's span carries outcome=cancelled.
//
// Scan always hashes the weights under the request's precision, so
// every result can be a later request's Prev. Incremental results equal
// a cold scan of req.Layout bit for bit whenever Dirty covers the actual
// layout difference (layout.Diff guarantees it by construction), and a
// valid, uncancelled Scan equals DetectLayoutMegatile at the same
// precision.
func (m *Model) Scan(ctx context.Context, req ScanRequest) (*ScanResult, error) {
	if req.Layout == nil {
		return nil, badInputf("hsd: nil layout")
	}
	if req.Window.Canon().Empty() {
		return nil, badInputf("hsd: empty scan window %v", req.Window)
	}
	prec, err := m.passPrecision(req.Precision)
	if err != nil {
		return nil, err
	}
	var res *ScanResult
	if perr := guard.Run(func() {
		res, err = m.scanMegatiles(ctx, req.Layout, req.Window, req.Factor, prec, m.weightsVersion(prec), req.Prev, req.Dirty)
	}); perr != nil {
		return nil, perr
	}
	return res, err
}

// DetectLayoutMegatile scans an arbitrarily large layout window in
// megatiles of factor×factor regions: each megatile is rasterized once
// and detected in a single shape-polymorphic forward pass, then
// detections are filtered by the halo-ownership rule (a clip whose centre
// falls inside the seam overlap past the midpoint — beyond the boundary
// slack band, see ownershipSlackNM — is deferred to the neighbouring
// megatile that sees it with more context) and merged with cross-megatile
// h-NMS. Detections are returned in nanometre coordinates relative to the
// window origin. It is Scan's unchecked, uncancellable form at the view's
// precision.
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
	prec := m.Precision()
	var version [32]byte
	if m.cache != nil {
		version = m.weightsVersion(prec)
	}
	res, _ := m.scanMegatiles(context.Background(), l, window, factor, prec, version, nil, nil)
	return res.Detections
}

// ScanLayoutMegatile is DetectLayoutMegatile returning the full scan
// state: identical detections, plus the per-megatile results, scan
// geometry and weights version a later Scan can take as its Prev.
func (m *Model) ScanLayoutMegatile(l *layout.Layout, window layout.Rect, factor int) *ScanResult {
	prec := m.Precision()
	res, _ := m.scanMegatiles(context.Background(), l, window, factor, prec, m.weightsVersion(prec), nil, nil)
	return res
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
// throwaway view. The model's own arena is not used because it keeps
// every buffer of earlier, larger passes; the view carries no
// instruments because the probe is not a detection.
func (m *Model) regionWorkspaceBytes() int64 {
	if m.regionBytes > 0 {
		return m.regionBytes
	}
	c := m.Config
	x := tensor.New(1, InputChannels, c.InputSize, c.InputSize)
	for i := c.InputSize * c.InputSize; i < 2*c.InputSize*c.InputSize; i++ {
		x.Data()[i] = 1 // all space, matching an empty region's raster
	}
	probe, _ := m.Clone() // a view: Clone cannot fail
	probe.ins = nil
	probe.Detect(x)
	m.regionBytes = int64(probe.ws.Footprint()) * 4 // float32 bytes
	return m.regionBytes
}
