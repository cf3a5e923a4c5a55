package hsd

import (
	"context"
	"sync"
	"sync/atomic"

	"rhsd/internal/geom"
	"rhsd/internal/guard"
	"rhsd/internal/parallel"
	"rhsd/internal/tensor"
)

// Detection is one reported hotspot clip in the caller's coordinate frame.
type Detection struct {
	Clip  geom.Rect
	Score float64
}

// detectScratch is the pass state's reusable non-tensor detection
// state. All slices grow to the high-water mark of the pipeline and are
// recycled every Detect call, so steady-state detection allocates only
// the returned []Detection. The embedded BaseOutput is rewritten by each
// InferBase call.
type detectScratch struct {
	base    BaseOutput
	cand    []ScoredClip // decoded anchor candidates
	topk    []ScoredClip // pre-NMS top-K working copy
	sorted  []ScoredClip // nms sort buffer
	kept    []ScoredClip // nms survivors
	scored  []ScoredClip // refined, thresholded clips
	removed []bool       // nms suppression marks
	rois    []geom.Rect  // cascade RoIs (current)
	next    []geom.Rect  // cascade RoIs (next iteration)
}

// nmsInto applies the configured suppression — h-NMS (Alg. 1) by
// default, conventional whole-clip NMS for the ablation — with every
// buffer drawn from s. The returned slice aliases s.kept and is valid
// until the next nmsInto call on the same scratch.
func (m *Model) nmsInto(s *detectScratch, clips []ScoredClip) []ScoredClip {
	overlap := geom.CoreIoU
	if m.Config.ConventionalNMS {
		overlap = geom.IoU
	}
	return nms(s, clips, m.Config.NMSThreshold, overlap)
}

// nms is nmsInto on a fresh scratch, so the result is the caller's own.
func (m *Model) nms(clips []ScoredClip) []ScoredClip {
	return m.nmsInto(&detectScratch{}, clips)
}

// decodeProposals is the one proposal decoder, shared by Detect and
// Proposals. It decodes the CPN output over the given anchor grid,
// bounded by the w×h pixel extent of the raster that produced out, and
// ranks the candidates by the pre-NMS budget into s.topk, which it
// returns with the proposal budget to cut the suppressed list to (≤ 0:
// keep all). Both budgets scale with the grid's cell count relative to
// the nominal grid, so a megatile keeps the same proposal density per
// unit area as a single-region pass; at the nominal size both scale
// factors are exactly 1.
func (m *Model) decodeProposals(s *detectScratch, set *AnchorSet, out *BaseOutput, w, h int) (ranked []ScoredClip, budget int) {
	c := m.Config
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
	return s.topk, c.ProposalCount * ratio
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
// Proposal budgets scale with raster area (see decodeProposals).
//
// Detect runs on the model's allocation-free inference path: activations
// come from the per-model workspace (reset on entry), candidate and NMS
// buffers from the model's scratch. At fp32, results are bit-identical
// to the training-path ForwardBase/Proposals/RefineForward composition
// (TestInferMatchesTrainingPath); the only steady-state heap allocation
// is the returned []Detection. The trunk runs at the view's precision
// (SetPrecision).
func (m *Model) Detect(x *tensor.Tensor) []Detection { return m.detect(x, m.Precision()) }

// detect is Detect with the trunk on the numeric path prec.
func (m *Model) detect(x *tensor.Tensor, prec string) []Detection {
	c := m.Config
	s := &m.scratch
	ins := m.ins
	if ins != nil {
		ins.DetectPasses.Inc()
	}
	h, w := x.Dim(2), x.Dim(3)
	out := m.inferBase(x, prec)
	sp := m.stageSpan(StagePruning)
	ranked, budget := m.decodeProposals(s, m.anchorsFor(h/FeatureStride, w/FeatureStride), out, w, h)
	sp.End()
	sp = m.stageSpan(StageHNMS)
	props := m.nmsInto(s, ranked)
	sp.End()
	if ins != nil {
		ins.ProposalsSuppressed.Add(int64(len(ranked) - len(props)))
	}
	// props is already in descending score order, so the proposal budget
	// keeps a prefix — what Proposals' trailing TopK returns.
	if budget > 0 && budget < len(props) {
		props = props[:budget]
	}
	if ins != nil {
		ins.ProposalsKept.Add(int64(len(props)))
	}
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
	sp = m.stageSpan(StageHNMS)
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

// scanReplicated runs scan(worker, i) for every work item i in [0, n)
// on up to parallel.Workers() goroutines — capped by SetScanWorkers —
// each driving its own view of the model: m itself and cached scan
// workers (Clone views kept in m.replicas). At the start of every scan
// each worker is refreshed from m with one struct copy that keeps only
// its own pass state, so it runs with m's present Config, quantizer,
// instruments and cache, and the layers and weights are m's own. Work
// items are claimed from a shared counter; callers store per-item
// results in a slice indexed by i so output order — and therefore the
// final merge — is identical for every worker count. scan receives the
// worker slot w driving it (0 = the primary model) so traced scans can
// attribute each work item to the worker that ran it.
//
// ctx is checked before each work item is claimed. Once it is done no
// further item starts and the items in flight finish; scanReplicated
// then returns ctx's error if any item was never claimed, and nil when
// every item ran.
//
// A panic in scan on a worker goroutine is recovered there (guard.Run):
// the workers stop claiming items, and once the items in flight finish,
// scanReplicated panics on the calling goroutine with the first
// *guard.PanicError, whose stack names the kernel that panicked.
func (m *Model) scanReplicated(ctx context.Context, n int, scan func(mw *Model, w, i int)) error {
	workers := parallel.Workers()
	if m.scanWorkers > 0 && m.scanWorkers < workers {
		workers = m.scanWorkers
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			scan(m, 0, i)
		}
		return nil
	}
	for len(m.replicas) < workers-1 {
		r, _ := m.Clone() // a view: Clone cannot fail
		m.replicas = append(m.replicas, r)
	}
	views := []*Model{m}
	for _, r := range m.replicas[:workers-1] {
		ps := r.passState
		*r = *m
		r.passState = ps
		views = append(views, r)
	}
	var next atomic.Int32
	var failed atomic.Pointer[guard.PanicError]
	var wg sync.WaitGroup
	wg.Add(len(views))
	for w, r := range views {
		go func(mw *Model, w int) {
			defer wg.Done()
			err := guard.Run(func() {
				for ctx.Err() == nil && failed.Load() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					scan(mw, w, i)
				}
			})
			if err != nil {
				failed.CompareAndSwap(nil, err.(*guard.PanicError))
			}
		}(r, w)
	}
	wg.Wait()
	if perr := failed.Load(); perr != nil {
		panic(perr)
	}
	if int(next.Load()) < n {
		return ctx.Err()
	}
	return nil
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
