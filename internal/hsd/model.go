package hsd

import (
	"fmt"
	"math"
	"math/rand"

	"rhsd/internal/geom"
	"rhsd/internal/nn"
	"rhsd/internal/telemetry"
	"rhsd/internal/tensor"
)

// Model is the R-HSD network: shared feature extractor, clip proposal
// network heads and the refinement stage. A Model value is a view: its
// layers, parameters, prepacked Dense weights, int8 quantizer,
// instruments and cache are references that Clone shares, while Config,
// precision and the scan-worker cap are per view and its passState is
// owned. Inference writes nothing outside the pass state, so one view
// serves one goroutine at a time and any number of views infer at once
// over one set of weights (see Clone).
type Model struct {
	Config Config

	// Stem is the first convolution + pool (stride 2); its output doubles
	// as the fine-scale feature tap for the refinement stage.
	Stem *nn.Sequential
	// The shared extractor continues from the stem in three stages kept
	// as separate containers so the telemetry layer can time each paper
	// stage (§3.1 backbone, §3.1.1 encoder-decoder, Figure 3 inception)
	// on its own histogram. Parameter order — Stem, Backbone, EncDec,
	// Inception — matches the pre-split single-trunk layout exactly, so
	// checkpoints remain interchangeable.
	//
	// Backbone is the rest of the stem: remaining convs + pool, ending
	// at the ×4-compressed feature map the encoder-decoder lifts.
	Backbone *nn.Sequential
	// EncDec is the joint encoder-decoder (empty when Config.UseEncDec
	// is off; an empty Sequential is the identity).
	EncDec *nn.Sequential
	// Inception is the chain A A B A A A A producing the shared feature
	// map [N,FeatC,S/8,S/8].
	Inception *nn.Sequential
	// FeatC is the extractor output channel count; FineC the tap's.
	FeatC int
	FineC int

	// Clip proposal network (Figure 4): a 3×3 trunk conv and two sibling
	// 1×1 heads. Cls emits 2 logits per anchor, Reg emits 4 offsets.
	RPNTrunk *nn.Sequential
	RPNCls   *nn.Conv2D
	RPNReg   *nn.Conv2D

	// Refinement stage (Figure 6): RoI pooling, inception modules B A A,
	// then fully-connected 2nd classification & regression. RoIFine pools
	// the stride-2 stem tap when Config.UseFineTap is set.
	RoI         *RoIPool
	RoIFine     *RoIPool
	RefineTrunk *nn.Sequential
	RefineFC    *nn.Sequential
	RefineCls   *nn.Dense
	RefineReg   *nn.Dense

	Anchors *AnchorSet
	rng     *rand.Rand

	// ins is the model's telemetry bundle (nil = telemetry disabled, the
	// default). Shared by reference with clones and scan workers so a
	// parallel scan aggregates into one set of series; see SetInstruments.
	ins *Instruments

	// cache is the attached megatile result cache (nil = caching
	// disabled, the default). Shared by reference like ins — the cache is
	// concurrency-safe and content-addressed, so clones and scan workers
	// can all consult one instance; see SetScanCache.
	cache *DetCache

	// precision is the trunk's numeric path (PrecisionFP32 default) and
	// quant the armed int8 calibration state, nil until CalibrateInt8. A
	// frozen Quantizer is read-only, so views share it by reference; see
	// quant.go.
	precision string
	quant     *nn.Quantizer

	// scanWorkers caps the goroutines (and scan workers) one layout scan
	// may use; 0 means parallel.Workers(). See SetScanWorkers.
	scanWorkers int

	passState
}

// passState is everything one inference goroutine writes. Every other
// field of a Model is read-only on the inference path, which is what
// lets views share them; Clone gives each view a pass state of its own.
type passState struct {
	// ws is the inference workspace: every tensor the detection path
	// needs is drawn from this arena and recycled by the Reset at the top
	// of each Detect call, so steady-state inference allocates no tensor
	// memory.
	ws *tensor.Workspace
	// scratch holds the reusable non-tensor buffers of the detection
	// pipeline (candidate lists, NMS bookkeeping, RoI rectangles).
	scratch detectScratch
	// raster and mask are the megatile input raster and its one-channel
	// layout mask, refilled megatile after megatile (regionRaster).
	raster *tensor.Tensor
	mask   []float32
	// anchorGrids caches anchor sets for non-nominal feature-map extents
	// (megatile inference), keyed by fh<<32|fw.
	anchorGrids map[int64]*AnchorSet
	// replicas are the cached scan workers: views of this model reused
	// across layout scans, so a long-lived model (a serving worker, a CLI
	// scanning many windows) keeps their grown workspaces. scanReplicated
	// refreshes each from the model at the start of every scan.
	replicas []*Model
	// trace/tspan are the request trace and the megatile span stage
	// spans parent under, set for exactly one traced work item of a scan
	// and cleared after it (trace.go). Nil — the default, and the state
	// between work items — keeps every instrumented site on the
	// branch-only fast path.
	trace *telemetry.Trace
	tspan *telemetry.TraceSpan
	// profScope is the reusable per-work-item tensor profile scope,
	// lazily built the first time this model (as a scan worker) runs a
	// traced work item and reset before each one.
	profScope *tensor.ProfileScope
	// regionBytes caches regionWorkspaceBytes (0 = not yet measured).
	regionBytes int64
}

// NewModel builds and initializes an R-HSD network for the configuration.
func NewModel(c Config) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	m := &Model{Config: c, rng: rng, passState: passState{ws: tensor.NewWorkspace()}}

	// --- feature extraction stem: 3 convs + 2 max pools, ×4 compression
	// ("compress the feature map size from 224×224 to 56×56", §3.1). The
	// first conv+pool block is kept separate so its stride-2 output can
	// feed the refinement stage's fine-scale tap.
	s := c.StemChannels
	m.Stem = nn.NewSequential(
		nn.NewConv2D("stem1", InputChannels, s[0], 3, 1, 1, rng),
		act(),
		nn.NewMaxPool2D(2, 2),
	)
	m.FineC = s[0]
	m.Backbone = nn.NewSequential(
		nn.NewConv2D("stem2", s[0], s[1], 3, 1, 1, rng),
		act(),
		nn.NewConv2D("stem3", s[1], s[2], 3, 1, 1, rng),
		act(),
		nn.NewMaxPool2D(2, 2),
	)

	// --- joint encoder-decoder (§3.1.1): three convolutions lift the
	// features into a higher-dimensional latent space, three symmetric
	// 3×3 deconvolutions bring them back to the stem width. Spatial size
	// is preserved; the lift is in channels, per the paper's description.
	m.EncDec = nn.NewSequential()
	if c.UseEncDec {
		e := c.EncChannels
		m.EncDec.Append(
			nn.NewConv2D("enc1", s[2], e[0], 3, 1, 1, rng),
			act(),
			nn.NewConv2D("enc2", e[0], e[1], 3, 1, 1, rng),
			act(),
			nn.NewConv2D("enc3", e[1], e[2], 3, 1, 1, rng),
			act(),
			nn.NewDeconv2D("dec1", e[2], e[1], 3, 1, 1, rng),
			act(),
			nn.NewDeconv2D("dec2", e[1], e[0], 3, 1, 1, rng),
			act(),
			nn.NewDeconv2D("dec3", e[0], s[2], 3, 1, 1, rng),
			act(),
		)
	}

	// --- inception chain A A B A A A A (Figure 3). Module A: stride 1,
	// four branches; module B: stride 2, three branches ("the out feature
	// map half than the input").
	w := c.InceptionWidth
	chain := []struct {
		kind string
		name string
	}{
		{"A", "incA1"}, {"A", "incA2"}, {"B", "incB"},
		{"A", "incA3"}, {"A", "incA4"}, {"A", "incA5"}, {"A", "incA6"},
	}
	m.Inception = nn.NewSequential()
	inCh := s[2]
	for _, mod := range chain {
		if mod.kind == "A" {
			m.Inception.Append(inceptionA(mod.name, inCh, w, rng))
			inCh = 4 * w
		} else {
			m.Inception.Append(inceptionB(mod.name, inCh, w, rng))
			inCh = 3 * w
		}
	}
	m.FeatC = inCh

	// --- clip proposal network heads.
	per := c.AnchorsPerCell()
	m.RPNTrunk = nn.NewSequential(
		nn.NewConv2D("rpn.trunk", m.FeatC, c.HeadChannels, 3, 1, 1, rng),
		act(),
	)
	m.RPNCls = nn.NewConv2D("rpn.cls", c.HeadChannels, 2*per, 1, 1, 0, rng)
	m.RPNReg = nn.NewConv2D("rpn.reg", c.HeadChannels, 4*per, 1, 1, 0, rng)

	// --- refinement stage.
	m.RoI = NewRoIPool(c.RoISize, FeatureStride)
	refineIn := m.FeatC
	if c.UseFineTap {
		m.RoIFine = NewRoIPool(c.RoISize, 2)
		refineIn += m.FineC
	}
	m.RefineTrunk = nn.NewSequential(
		inceptionB("ref.incB", refineIn, w, rng),
		inceptionA("ref.incA1", 3*w, w, rng),
		inceptionA("ref.incA2", 4*w, w, rng),
	)
	refSpatial := (c.RoISize + 1) / 2 // module B halves 7→4
	refIn := 4 * w * refSpatial * refSpatial
	m.RefineFC = nn.NewSequential(
		nn.NewFlatten(),
		nn.NewDense("ref.fc", refIn, c.RefineFC, rng),
		act(),
	)
	m.RefineCls = nn.NewDense("ref.cls", c.RefineFC, 2, rng)
	m.RefineReg = nn.NewDense("ref.reg", c.RefineFC, 4, rng)

	m.Anchors = GenerateAnchors(c)
	m.packInferWeights()
	return m, nil
}

// packInferWeights (re)builds the prepacked weight views the dense
// inference layers multiply against (tensor.PackB). The packs are
// derived caches of the parameters, so this must run at every point
// the weights mutate in place — model construction, Load and the end of
// a training run (Backward drops stale packs mid-training; DESIGN §17).
// Views share the layers, so one call re-arms every view. That is the
// same set of points WeightsVersion observes fresh weights at, so a
// cached scan never infers against stale panels.
func (m *Model) packInferWeights() {
	for _, l := range m.RefineFC.Layers {
		if d, ok := l.(*nn.Dense); ok {
			d.PackWeights()
		}
	}
	m.RefineCls.PackWeights()
	m.RefineReg.PackWeights()
}

// anchorsFor returns the anchor grid for an fh×fw feature map, generating
// and caching it on first use. The nominal grid is served without a map
// lookup so the fixed-size Detect path stays allocation-free from the
// first call.
func (m *Model) anchorsFor(fh, fw int) *AnchorSet {
	if fh == m.Anchors.FeatH && fw == m.Anchors.FeatW {
		return m.Anchors
	}
	key := int64(fh)<<32 | int64(fw)
	if s, ok := m.anchorGrids[key]; ok {
		return s
	}
	if m.anchorGrids == nil {
		m.anchorGrids = make(map[int64]*AnchorSet)
	}
	s := GenerateAnchorsSized(m.Config, fh, fw)
	m.anchorGrids[key] = s
	return s
}

// WorkspaceFootprint reports the float32 capacity retained by the model's
// inference workspace — the number auto megatile sizing and the Trim
// policy reason about.
func (m *Model) WorkspaceFootprint() int { return m.ws.Footprint() }

// TotalWorkspaceFootprint is WorkspaceFootprint summed over the model and
// its cached scan workers — the figure a memory dashboard (rhsd-serve
// /statusz) wants, since every scan worker retains a full scan footprint.
func (m *Model) TotalWorkspaceFootprint() int {
	total := m.WorkspaceFootprint()
	for _, r := range m.replicas {
		total += r.TotalWorkspaceFootprint()
	}
	return total
}

// TrimWorkspace releases retained inference scratch until at most
// maxFloats float32s remain per workspace, recycling live buffers first
// and cascading to cached scan workers; a megatile raster larger than
// maxFloats goes too. A model that has served a megatile pass keeps
// megatile-sized buffers alive for the next pass; callers that drop back
// to nominal-size Detect calls — or a serving daemon going idle — can
// trim to a budget and the workspaces regrow on demand (see DESIGN.md
// §10/§11 for the retention policy).
func (m *Model) TrimWorkspace(maxFloats int) {
	m.ws.Reset()
	m.ws.Trim(maxFloats)
	if m.raster != nil && m.raster.Size()+cap(m.mask) > maxFloats {
		m.raster, m.mask = nil, nil
	}
	for _, r := range m.replicas {
		r.TrimWorkspace(maxFloats)
	}
}

// SetScanWorkers caps the goroutines — and therefore the cached scan
// workers — one layout scan may use. 0 restores the default,
// parallel.Workers(). 1 makes scans run serially on m itself with no
// scan workers at all: the configuration a serving pool uses so
// cross-request parallelism comes from pooled clones rather than nested
// per-request fan-out. Shrinking the cap releases the now-excess cached
// scan workers.
func (m *Model) SetScanWorkers(n int) {
	if n < 0 {
		n = 0
	}
	m.scanWorkers = n
	if n > 0 && len(m.replicas) > n-1 {
		for i := n - 1; i < len(m.replicas); i++ {
			m.replicas[i] = nil // release for GC
		}
		m.replicas = m.replicas[:n-1]
	}
}

// inceptionA builds module A of Figure 3: four stride-1 branches
// (1×1 | 1×1→3×3 | 1×1→3×3→3×3 | 3×3) concatenated in the channel
// direction. "The aim of the module A is to extract multiple features
// without downsampling the feature map."
func inceptionA(name string, in, w int, rng *rand.Rand) nn.Layer {
	return nn.NewSequential(nn.NewConcatBranches(
		nn.NewSequential(
			nn.NewConv2D(name+".b1.1x1", in, w, 1, 1, 0, rng), act(),
		),
		nn.NewSequential(
			nn.NewConv2D(name+".b2.1x1", in, w, 1, 1, 0, rng), act(),
			nn.NewConv2D(name+".b2.3x3", w, w, 3, 1, 1, rng), act(),
		),
		nn.NewSequential(
			nn.NewConv2D(name+".b3.1x1", in, w, 1, 1, 0, rng), act(),
			nn.NewConv2D(name+".b3.3x3a", w, w, 3, 1, 1, rng), act(),
			nn.NewConv2D(name+".b3.3x3b", w, w, 3, 1, 1, rng), act(),
		),
		nn.NewSequential(
			nn.NewConv2D(name+".b4.3x3", in, w, 3, 1, 1, rng), act(),
		),
	))
}

// inceptionB builds module B of Figure 3: three branches whose final
// convolutions use stride 2, halving the feature map.
func inceptionB(name string, in, w int, rng *rand.Rand) nn.Layer {
	return nn.NewSequential(nn.NewConcatBranches(
		nn.NewSequential(
			nn.NewConv2D(name+".b1.1x1", in, w, 1, 1, 0, rng), act(),
			nn.NewConv2D(name+".b1.3x3s2", w, w, 3, 2, 1, rng), act(),
		),
		nn.NewSequential(
			nn.NewConv2D(name+".b2.1x1", in, w, 1, 1, 0, rng), act(),
			nn.NewConv2D(name+".b2.3x3", w, w, 3, 1, 1, rng), act(),
			nn.NewConv2D(name+".b2.3x3s2", w, w, 3, 2, 1, rng), act(),
		),
		nn.NewSequential(
			nn.NewConv2D(name+".b3.3x3s2", in, w, 3, 2, 1, rng), act(),
		),
	))
}

// Params returns all trainable parameters of every stage.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.Stem.Params()...)
	ps = append(ps, m.Backbone.Params()...)
	ps = append(ps, m.EncDec.Params()...)
	ps = append(ps, m.Inception.Params()...)
	ps = append(ps, m.RPNTrunk.Params()...)
	ps = append(ps, m.RPNCls.Params()...)
	ps = append(ps, m.RPNReg.Params()...)
	ps = append(ps, m.RefineTrunk.Params()...)
	ps = append(ps, m.RefineFC.Params()...)
	ps = append(ps, m.RefineCls.Params()...)
	ps = append(ps, m.RefineReg.Params()...)
	return ps
}

// Clone returns a view of the model: a Model sharing m's layers,
// parameters, prepacked Dense weights, int8 quantizer, instruments and
// scan cache by reference, with its own copy of Config, precision and
// the scan-worker cap and a fresh pass state (workspace, scratch, trace
// handles). Inference on a view writes only its pass state, so m and its
// clones may run Detect or layout scans concurrently, one goroutine per
// view, with outputs identical to m's.
//
// Because the weights are shared, a Load or a training step through any
// view is seen by all of them, and such a weight mutation must not
// overlap inference on any view. Config, precision and the scan-worker
// cap stay per view: changing them on one leaves the others as they
// were. The error is always nil.
func (m *Model) Clone() (*Model, error) {
	r := new(Model)
	*r = *m
	r.passState = passState{ws: tensor.NewWorkspace()}
	return r, nil
}

// Save writes all model parameters to a checkpoint file.
func (m *Model) Save(path string) error { return nn.SaveParamsFile(path, m.Params()) }

// Load restores model parameters from a checkpoint written by Save for an
// identically-configured model.
func (m *Model) Load(path string) error {
	if err := nn.LoadParamsFile(path, m.Params()); err != nil {
		return err
	}
	m.packInferWeights()
	return nil
}

// BaseOutput bundles the activations of the shared trunk and RPN heads
// for one region.
type BaseOutput struct {
	Feat     *tensor.Tensor // [1, FeatC, F, F]
	FineFeat *tensor.Tensor // [1, FineC, S/2, S/2] stem tap
	ClsMap   *tensor.Tensor // [1, 2A, F, F]
	RegMap   *tensor.Tensor // [1, 4A, F, F]
}

// ForwardBase runs the extractor and clip proposal network on one input
// raster. Like InferBase it is shape-polymorphic: any [1, 2, H, W] raster
// with H and W positive multiples of FeatureStride is accepted, which is
// what lets a model train on megatile-sized samples (multi-scale
// training) and close the context-distribution gap between the nominal
// region and the megatile scan.
func (m *Model) ForwardBase(x *tensor.Tensor) *BaseOutput {
	if x.Rank() != 4 || x.Dim(0) != 1 || x.Dim(1) != InputChannels ||
		x.Dim(2) <= 0 || x.Dim(2)%FeatureStride != 0 ||
		x.Dim(3) <= 0 || x.Dim(3)%FeatureStride != 0 {
		panic(fmt.Sprintf("hsd: ForwardBase input %v, want [1 %d 8k 8k]",
			x.Shape(), InputChannels))
	}
	fine := m.Stem.Forward(x)
	feat := m.Inception.Forward(m.EncDec.Forward(m.Backbone.Forward(fine)))
	trunk := m.RPNTrunk.Forward(feat)
	return &BaseOutput{
		Feat:     feat,
		FineFeat: fine,
		ClsMap:   m.RPNCls.Forward(trunk),
		RegMap:   m.RPNReg.Forward(trunk),
	}
}

// InferBase is the inference-path ForwardBase: it resets the model's
// workspace and runs the extractor and clip proposal network through the
// allocation-free nn.Layer Infer path (with conv+activation fusion). The
// returned BaseOutput and its tensors are owned by the model and valid
// only until the next InferBase/Detect call. Values are bit-identical to
// ForwardBase.
//
// Like ForwardBase, InferBase is shape-polymorphic: the backbone
// and CPN heads are fully convolutional, so any [1, 2, H, W] raster with
// H and W positive multiples of FeatureStride is accepted — the megatile
// scan feeds it rasters covering many regions at once. The trunk runs at
// the view's precision (SetPrecision).
func (m *Model) InferBase(x *tensor.Tensor) *BaseOutput { return m.inferBase(x, m.Precision()) }

// inferBase is InferBase with the trunk on the numeric path prec.
func (m *Model) inferBase(x *tensor.Tensor, prec string) *BaseOutput {
	if x.Rank() != 4 || x.Dim(0) != 1 || x.Dim(1) != InputChannels ||
		x.Dim(2) <= 0 || x.Dim(2)%FeatureStride != 0 ||
		x.Dim(3) <= 0 || x.Dim(3)%FeatureStride != 0 {
		panic(fmt.Sprintf("hsd: InferBase input %v, want [1 %d 8k 8k]",
			x.Shape(), InputChannels))
	}
	m.ws.Reset()
	sp := m.stageSpan(StageBackbone)
	fine := m.stageInfer(m.Stem, x, prec)
	feat := m.stageInfer(m.Backbone, fine, prec)
	sp.End()
	sp = m.stageSpan(StageEncDec)
	feat = m.stageInfer(m.EncDec, feat, prec)
	sp.End()
	sp = m.stageSpan(StageInception)
	feat = m.stageInfer(m.Inception, feat, prec)
	sp.End()
	sp = m.stageSpan(StageCPN)
	trunk := m.RPNTrunk.Infer(feat, m.ws)
	b := &m.scratch.base
	b.Feat = feat
	b.FineFeat = fine
	b.ClsMap = m.RPNCls.Infer(trunk, m.ws)
	b.RegMap = m.RPNReg.Infer(trunk, m.ws)
	sp.End()
	return b
}

// anchorLogits gathers the (non-hotspot, hotspot) logits of anchor i from
// the cls map under the given anchor grid. Anchor index layout matches
// GenerateAnchorsSized: i = (y*W + x)*A + a.
func anchorLogits(set *AnchorSet, cls *tensor.Tensor, i int) (float32, float32) {
	a := i % set.PerCell
	cell := i / set.PerCell
	y := cell / set.FeatW
	x := cell % set.FeatW
	return cls.At(0, 2*a, y, x), cls.At(0, 2*a+1, y, x)
}

// anchorReg gathers the 4 regression outputs of anchor i under the given
// anchor grid.
func anchorReg(set *AnchorSet, reg *tensor.Tensor, i int) geom.BoxEncoding {
	a := i % set.PerCell
	cell := i / set.PerCell
	y := cell / set.FeatW
	x := cell % set.FeatW
	return geom.BoxEncoding{
		LX: float64(reg.At(0, 4*a, y, x)),
		LY: float64(reg.At(0, 4*a+1, y, x)),
		LW: float64(reg.At(0, 4*a+2, y, x)),
		LH: float64(reg.At(0, 4*a+3, y, x)),
	}
}

// preNMSTopK bounds the number of candidates entering the O(n²) h-NMS, as
// in standard region-proposal pipelines.
const preNMSTopK = 256

// Proposals decodes, scores, bounds and h-NMS-filters the clip proposal
// network's output into candidate clips in input-pixel coordinates — the
// proposal step of Detect, through the same decoder and suppression, on
// a scratch of its own and without Detect's stage spans and counters.
// The grid is inferred from the head output's spatial extent, and the
// pre-NMS and proposal budgets scale with its cell count relative to the
// nominal grid (both exactly 1 at the nominal size), so Proposals serves
// sized forward passes and the training loop alike.
func (m *Model) Proposals(out *BaseOutput) []ScoredClip {
	fh, fw := out.ClsMap.Dim(2), out.ClsMap.Dim(3)
	s := &detectScratch{}
	ranked, budget := m.decodeProposals(s, m.anchorsFor(fh, fw), out, fw*FeatureStride, fh*FeatureStride)
	return TopK(m.nmsInto(s, ranked), budget)
}

// sigmoidDiff converts a two-logit pair into the hotspot probability
// softmax(l1) = σ(l1 − l0).
func sigmoidDiff(l1, l0 float32) float64 {
	d := float64(l1 - l0)
	return 1 / (1 + expNeg(d))
}

func expNeg(x float64) float64 {
	// exp(-x) clamped to avoid overflow for extreme logits.
	if x > 40 {
		return 0
	}
	if x < -40 {
		x = -40
	}
	return math.Exp(-x)
}

// RefineForward runs RoI pooling and the refinement stage on the given
// proposal clips, returning classification logits [R, 2] and regression
// deltas [R, 4] (relative to each proposal per Eq. 3). With UseFineTap
// the pooled deep features are concatenated with features pooled from the
// stride-2 stem tap, restoring the fine-scale signal (thin gaps and
// necks) that max pooling removes from the deep map.
func (m *Model) RefineForward(out *BaseOutput, rois []geom.Rect) (cls, reg *tensor.Tensor) {
	pooled := m.RoI.Forward(out.Feat, rois)
	if m.Config.UseFineTap {
		finePooled := m.RoIFine.Forward(out.FineFeat, rois)
		pooled = tensor.ConcatChannelsInfer(nil, pooled, finePooled)
	}
	trunkOut := m.RefineTrunk.Forward(pooled)
	hidden := m.RefineFC.Forward(trunkOut)
	return m.RefineCls.Forward(hidden), m.RefineReg.Forward(hidden)
}

// RefineInfer is the inference-path RefineForward: RoI pooling and the
// refinement stage run on workspace memory with nothing cached for
// Backward. The returned tensors are valid until the workspace's next
// Reset (i.e. the next InferBase/Detect call). Values are bit-identical
// to RefineForward.
func (m *Model) RefineInfer(out *BaseOutput, rois []geom.Rect) (cls, reg *tensor.Tensor) {
	pooled := m.RoI.Infer(m.ws, out.Feat, rois)
	if m.Config.UseFineTap {
		finePooled := m.RoIFine.Infer(m.ws, out.FineFeat, rois)
		pooled = tensor.ConcatChannelsInfer(m.ws, pooled, finePooled)
	}
	trunkOut := m.RefineTrunk.Infer(pooled, m.ws)
	hidden := m.RefineFC.Infer(trunkOut, m.ws)
	return m.RefineCls.Infer(hidden, m.ws), m.RefineReg.Infer(hidden, m.ws)
}

// RefineBackward propagates head gradients back to the shared feature
// maps and accumulates parameter gradients. It returns the gradient for
// the deep feature map and, when the fine tap is active, for the stem
// tap (nil otherwise).
func (m *Model) RefineBackward(gCls, gReg *tensor.Tensor) (gFeat, gFine *tensor.Tensor) {
	gHidden := m.RefineCls.Backward(gCls)
	gHidden.Add(m.RefineReg.Backward(gReg))
	gTrunk := m.RefineFC.Backward(gHidden)
	gPooled := m.RefineTrunk.Backward(gTrunk)
	if m.Config.UseFineTap {
		parts := tensor.SplitChannels(gPooled, m.FeatC, m.FineC)
		return m.RoI.Backward(parts[0]), m.RoIFine.Backward(parts[1])
	}
	return m.RoI.Backward(gPooled), nil
}

// act is the network activation. Leaky ReLU (slope 0.05) rather than plain
// ReLU: the tiny training budgets this package targets cannot recover from
// dying-ReLU collapse, and a small negative slope keeps every unit
// trainable without changing the architecture.
func act() nn.Layer { return nn.NewLeakyReLU(0.05) }
