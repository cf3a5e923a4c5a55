package hsd

import (
	"slices"
	"sync"
	"sync/atomic"

	"rhsd/internal/geom"
	"rhsd/internal/layout"
	"rhsd/internal/parallel"
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
)

// Detection is one reported hotspot clip in the caller's coordinate frame.
type Detection struct {
	Clip  geom.Rect
	Score float64
}

// detectScratch is the model's reusable non-tensor detection state. All
// slices grow to the high-water mark of the pipeline and are recycled
// every Detect call, so steady-state detection allocates only the
// returned []Detection. The embedded BaseOutput is rewritten by each
// InferBase call.
type detectScratch struct {
	base    BaseOutput
	cand    []ScoredClip // decoded anchor candidates
	topk    []ScoredClip // pre-NMS top-K working copy
	sorted  []ScoredClip // nmsInto sort buffer
	kept    []ScoredClip // nmsInto survivors
	scored  []ScoredClip // refined, thresholded clips
	removed []bool       // nmsInto suppression marks
	rois    []geom.Rect  // cascade RoIs (current)
	next    []geom.Rect  // cascade RoIs (next iteration)
}

// topKInto copies clips into dst, sorts them with TopK's stable
// byScoreDesc ranking and truncates to k. The returned slice aliases dst.
func topKInto(dst []ScoredClip, clips []ScoredClip, k int) []ScoredClip {
	dst = append(dst[:0], clips...)
	slices.SortStableFunc(dst, byScoreDesc)
	if k > 0 && k < len(dst) {
		dst = dst[:k]
	}
	return dst
}

// nmsInto is the scratch-backed counterpart of Model.nms: identical
// ordering and suppression semantics, but sort, survivor and removal
// buffers all come from s. The returned slice aliases s.kept and is valid
// until the next nmsInto call on the same scratch.
func (m *Model) nmsInto(s *detectScratch, clips []ScoredClip) []ScoredClip {
	overlap := geom.CoreIoU
	if m.Config.ConventionalNMS {
		overlap = geom.IoU
	}
	threshold := m.Config.NMSThreshold
	s.sorted = append(s.sorted[:0], clips...)
	sorted := s.sorted
	slices.SortStableFunc(sorted, byScoreDesc)
	if cap(s.removed) < len(sorted) {
		s.removed = make([]bool, len(sorted))
	}
	removed := s.removed[:len(sorted)]
	for i := range removed {
		removed[i] = false
	}
	s.kept = s.kept[:0]
	// Same disjointness quick-reject as the allocating nms: suppression
	// decisions are unchanged for non-negative thresholds.
	quick := threshold >= 0
	for i := range sorted {
		if removed[i] {
			continue
		}
		s.kept = append(s.kept, sorted[i])
		for j := i + 1; j < len(sorted); j++ {
			if removed[j] {
				continue
			}
			if quick && sorted[i].Clip.Disjoint(sorted[j].Clip) {
				continue
			}
			if overlap(sorted[i].Clip, sorted[j].Clip) > threshold {
				removed[j] = true
			}
		}
	}
	return s.kept
}

// proposalsInto is the scratch-backed counterpart of Proposals, used by
// the detection path. It decodes the CPN output over the given anchor
// grid, bounded by the w×h pixel extent of the raster that produced out.
// The pre-NMS top-K and proposal-count budgets scale with the grid's cell
// count relative to the nominal grid, so a megatile keeps the same
// proposal density per unit area as a per-tile scan; at the nominal size
// both scale factors are exactly 1 and the behaviour is unchanged. The
// returned slice aliases scratch buffers and is valid until the next
// proposalsInto/nmsInto call.
func (m *Model) proposalsInto(s *detectScratch, set *AnchorSet, out *BaseOutput, w, h int) []ScoredClip {
	c := m.Config
	sp := m.stageSpan(StagePruning)
	bounds := geom.Rect{X0: 0, Y0: 0, X1: float64(w), Y1: float64(h)}
	base := c.FeatureSize() * c.FeatureSize()
	ratio := (set.FeatH*set.FeatW + base - 1) / base
	s.cand = s.cand[:0]
	for i, anchor := range set.Boxes {
		l0, l1 := anchorLogits(set, out.ClsMap, i)
		score := sigmoidDiff(l1, l0)
		box := geom.Decode(anchorReg(set, out.RegMap, i), anchor).Clip(bounds)
		if box.W() < 2 || box.H() < 2 {
			continue
		}
		s.cand = append(s.cand, ScoredClip{Clip: box, Score: score})
	}
	s.topk = topKInto(s.topk, s.cand, preNMSTopK*ratio)
	sp.End()
	sp = m.stageSpan(StageHNMS)
	kept := m.nmsInto(s, s.topk)
	sp.End()
	if ins := m.ins; ins != nil {
		ins.ProposalsSuppressed.Add(int64(len(s.topk) - len(kept)))
	}
	// kept is already in descending score order, so the final TopK is a
	// prefix — same result as Proposals' trailing TopK call.
	if pc := c.ProposalCount * ratio; c.ProposalCount > 0 && pc < len(kept) {
		kept = kept[:pc]
	}
	if ins := m.ins; ins != nil {
		ins.ProposalsKept.Add(int64(len(kept)))
	}
	return kept
}

// Detect runs one-pass region-based detection on an input raster
// [1,2,H,W] (H, W positive multiples of FeatureStride) and returns final
// hotspot clips in input-pixel coordinates.
//
// With refinement enabled this is the full two-stage flow of Figure 8:
// the clip proposal network localizes candidates, then the 2nd
// classification re-scores each candidate and the 2nd regression fine-
// tunes its clip. Without refinement ("w/o. Refine") the proposals are
// reported directly, thresholded on the 1st-stage score.
//
// Detect is shape-polymorphic: the backbone and heads are fully
// convolutional, the anchor grid is generated (and cached) per
// feature-map extent, and refinement RoI-pools per proposal from whatever
// feature map exists — so one call can cover a whole megatile of layout.
// Proposal budgets scale with raster area (see proposalsInto).
//
// Detect runs on the model's allocation-free inference path: activations
// come from the per-model workspace (reset on entry), candidate and NMS
// buffers from the model's scratch. Results are bit-identical to the
// training-path ForwardBase/Proposals/RefineForward composition; the
// only steady-state heap allocation is the returned []Detection.
func (m *Model) Detect(x *tensor.Tensor) []Detection {
	c := m.Config
	s := &m.scratch
	ins := m.ins
	if ins != nil {
		ins.DetectPasses.Inc()
	}
	h, w := x.Dim(2), x.Dim(3)
	out := m.InferBase(x)
	set := m.anchorsFor(h/FeatureStride, w/FeatureStride)
	props := m.proposalsInto(s, set, out, w, h)
	if !c.UseRefine {
		var dets []Detection
		for _, p := range props {
			if p.Score >= c.ScoreThreshold {
				dets = append(dets, Detection{Clip: p.Clip, Score: p.Score})
			}
		}
		if ins != nil {
			ins.Detections.Add(int64(len(dets)))
		}
		return dets
	}
	if len(props) == 0 {
		return nil
	}
	spRef := m.stageSpan(StageRefine)
	cur, nxt := s.rois[:0], s.next[:0]
	for _, p := range props {
		cur = append(cur, p.Clip)
	}
	bounds := geom.Rect{X0: 0, Y0: 0, X1: float64(w), Y1: float64(h)}
	iters := c.RefineIterations
	if iters < 1 {
		iters = 1
	}
	empty := false
	for it := 0; it < iters && !empty; it++ {
		refCls, refReg := m.RefineInfer(out, cur)
		s.scored = s.scored[:0]
		nxt = nxt[:0]
		for i, r := range cur {
			score := sigmoidDiff(refCls.At(i, 1), refCls.At(i, 0))
			enc := geom.BoxEncoding{
				LX: float64(refReg.At(i, 0)),
				LY: float64(refReg.At(i, 1)),
				LW: float64(refReg.At(i, 2)),
				LH: float64(refReg.At(i, 3)),
			}
			box := geom.Decode(enc, r).Clip(bounds)
			if box.W() < 2 || box.H() < 2 {
				continue
			}
			// Intermediate cascade iterations keep every clip alive so a
			// clip can recover once re-centred; the final iteration applies
			// the score threshold.
			if it == iters-1 {
				if score >= c.ScoreThreshold {
					s.scored = append(s.scored, ScoredClip{Clip: box, Score: score})
				}
			} else {
				nxt = append(nxt, box)
			}
		}
		if it < iters-1 {
			if len(nxt) == 0 {
				empty = true
				break
			}
			cur, nxt = nxt, cur
		}
	}
	// Store the (possibly swapped, possibly grown) buffers back so their
	// capacity is kept for the next call.
	s.rois, s.next = cur, nxt
	spRef.End()
	if empty {
		return nil
	}
	sp := m.stageSpan(StageHNMS)
	final := m.nmsInto(s, s.scored)
	sp.End()
	dets := make([]Detection, len(final))
	for i, sc := range final {
		dets[i] = Detection{Clip: sc.Clip, Score: sc.Score}
	}
	if ins != nil {
		ins.Detections.Add(int64(len(dets)))
	}
	return dets
}

// DetectLayout scans an arbitrarily large layout window by tiling it into
// overlapping regions of the model's input size, detecting each tile in
// one forward pass and merging the tile detections with h-NMS. Detections
// are returned in nanometre coordinates relative to the window origin.
//
// Tiles overlap by one clip so hotspots on tile seams are seen centred in
// at least one tile — the region-based analogue of the conventional
// sliding-clip overlap, but with a stride of nearly a full region rather
// than a clip core (the source of the paper's ~45× speedup).
//
// Tiles are scanned concurrently on up to parallel.Workers() goroutines,
// each driving its own model replica (Clone) because layers cache forward
// activations. Per-tile results land in a slice indexed by tile and are
// concatenated in row-major tile order before the final h-NMS, so the
// output is bit-identical to a serial scan for every worker count.
func (m *Model) DetectLayout(l *layout.Layout, window layout.Rect) []Detection {
	c := m.Config
	regionNM := c.RegionNM()
	overlapNM := int(c.ClipNM())
	strideNM := regionNM - overlapNM
	if strideNM <= 0 {
		strideNM = regionNM
	}
	ys := tileOrigins(window.Y0, window.Y1, regionNM, strideNM)
	xs := tileOrigins(window.X0, window.X1, regionNM, strideNM)
	type tile struct{ x, y int }
	tiles := make([]tile, 0, len(ys)*len(xs))
	for _, y := range ys {
		for _, x := range xs {
			tiles = append(tiles, tile{x, y})
		}
	}

	scanTile := func(mw *Model, t tile) []ScoredClip {
		sub := l.Window(layout.R(t.x, t.y, t.x+regionNM, t.y+regionNM))
		raster := MakeSample(sub, nil, c).Raster
		var clips []ScoredClip
		for _, d := range mw.Detect(raster) {
			clipNM := d.Clip.Scale(c.PitchNM).Translate(float64(t.x-window.X0), float64(t.y-window.Y0))
			clips = append(clips, ScoredClip{Clip: clipNM, Score: d.Score})
		}
		return clips
	}

	tr := m.trace
	var scanSpan *telemetry.TraceSpan
	if tr != nil {
		scanSpan = tr.StartSpan(m.tspan, "scan")
		scanSpan.SetAttr("tiles", int64(len(tiles)))
		prev := m.tspan
		m.tspan = scanSpan
		defer func() {
			m.tspan = prev
			tr.EndSpan(scanSpan)
		}()
	}

	perTile := make([][]ScoredClip, len(tiles))
	m.scanReplicated(len(tiles), func(mw *Model, w, i int) {
		t := tiles[i]
		wt := beginWorkTrace(tr, scanSpan, mw, "tile", w)
		wt.span.SetAttr("x_nm", int64(t.x))
		wt.span.SetAttr("y_nm", int64(t.y))
		perTile[i] = scanTile(mw, t)
		wt.end(tr)
	})

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
	if ins := m.ins; ins != nil {
		ins.TilesScanned.Add(int64(len(tiles)))
		ins.WorkspaceBytes.Set(int64(m.TotalWorkspaceFootprint()) * 4)
	}
	return out
}

// scanReplicated runs scan(replica, i) for every work item i in [0, n) on
// up to parallel.Workers() goroutines — capped by SetScanWorkers — each
// driving its own model replica (Clone) because layers and workspaces are
// single-goroutine state. Replicas are cached on the model and reused
// across calls (with their parameters re-synced from m each time, so a
// Load between scans takes effect), which keeps a long-lived model from
// re-building the network and re-growing workspaces on every scan. Work
// items are claimed from a shared counter; callers store per-item results
// in a slice indexed by i so output order — and therefore the final merge
// — is identical for every worker count. scan receives the worker slot w
// driving it (0 = the primary model) so traced scans can attribute each
// work item to the replica that ran it.
func (m *Model) scanReplicated(n int, scan func(mw *Model, w, i int)) {
	workers := parallel.Workers()
	if m.scanWorkers > 0 && m.scanWorkers < workers {
		workers = m.scanWorkers
	}
	if workers > n {
		workers = n
	}
	// Replica construction can fail only on an invalid Config, which m
	// itself already passed; a defensive fallback keeps the scan serial on
	// whatever replicas did build.
	for len(m.replicas) < workers-1 {
		r, err := m.Clone()
		if err != nil {
			break
		}
		m.replicas = append(m.replicas, r)
	}
	replicas := []*Model{m}
	for _, r := range m.replicas {
		if len(replicas) >= workers {
			break
		}
		m.syncReplica(r)
		replicas = append(replicas, r)
	}
	if len(replicas) == 1 {
		for i := 0; i < n; i++ {
			scan(m, 0, i)
		}
		return
	}
	var next int32
	var wg sync.WaitGroup
	wg.Add(len(replicas))
	for w, r := range replicas {
		go func(mw *Model, w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1)) - 1
				if i >= n {
					return
				}
				scan(mw, w, i)
			}
		}(r, w)
	}
	wg.Wait()
}

// tileOrigins enumerates tile start coordinates covering [lo, hi) with the
// given stride, clamping the final tile so it ends at hi rather than
// overhanging the window (when the window is at least one region wide).
// Non-positive strides are clamped to a full region so a degenerate
// overlap configuration can never loop forever.
func tileOrigins(lo, hi, region, stride int) []int {
	if hi-lo <= region {
		return []int{lo}
	}
	if stride <= 0 {
		stride = region
	}
	var out []int
	for p := lo; ; p += stride {
		if p+region >= hi {
			out = append(out, hi-region)
			return out
		}
		out = append(out, p)
	}
}

// DetectionsNM converts pixel-space detections from Detect into nanometre
// coordinates.
func (m *Model) DetectionsNM(dets []Detection) []Detection {
	out := make([]Detection, len(dets))
	for i, d := range dets {
		out[i] = Detection{Clip: d.Clip.Scale(m.Config.PitchNM), Score: d.Score}
	}
	return out
}
