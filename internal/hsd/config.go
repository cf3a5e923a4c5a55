// Package hsd implements the paper's contribution: the R-HSD region-based
// hotspot detection neural network (Chen et al., DAC 2019). The pipeline
// has the three stages of Figure 2 —
//
//  1. feature extraction: a convolution/pooling stem, a joint
//     encoder-decoder, and an Inception-based extractor (§3.1);
//  2. a clip proposal network emitting 12 candidate clips per feature-map
//     pixel with classification and regression branches (§3.2), trained
//     with the clip-pruning rules of §3.2.1 and deduplicated with hotspot
//     non-maximum suppression (§3.2.2, Alg. 1);
//  3. a refinement stage with RoI pooling and a second classification &
//     regression pass that cuts false alarms (§3.3);
//
// trained end-to-end with the multi-task C&R loss of §3.4 (smooth-L1 +
// cross-entropy + L2 regularization).
package hsd

import (
	"fmt"
)

// Config collects every architectural and training hyperparameter. The
// paper's settings are the defaults of PaperConfig; TinyConfig shrinks the
// spatial and channel dimensions so the full pipeline trains in seconds on
// one CPU core while keeping the architecture shape intact.
type Config struct {
	// --- geometry ---

	// InputSize is the square region raster fed to the network, in pixels
	// (paper: 256 at inference, 224 through the feature-extraction
	// description; the architecture only requires divisibility by the
	// feature stride).
	InputSize int
	// PitchNM converts between layout nanometres and raster pixels
	// (paper: 256 px ↔ 2.56 µm region, i.e. 10 nm/px).
	PitchNM float64
	// ClipPx is the ground-truth clip size in pixels; the anchor base.
	ClipPx float64

	// --- anchors (§3.2: "a group of 12 clips with different aspect
	// ratios are generated" per feature-map pixel) ---

	// AspectRatios are clip height:width ratios (paper: 0.5, 1.0, 2.0).
	AspectRatios []float64
	// Scales multiply ClipPx (paper: 0.25, 0.5, 1.0, 2.0).
	Scales []float64

	// --- architecture ---

	// StemChannels are the three stem convolution widths; two 2×2 max
	// pools between them give the 224→56 compression of §3.1.
	StemChannels [3]int
	// UseEncDec toggles the joint encoder-decoder ("w/o. ED" in Fig. 10
	// removes it).
	UseEncDec bool
	// EncChannels are the three encoder widths; the decoder mirrors them
	// back down to StemChannels[2].
	EncChannels [3]int
	// InceptionWidth is the per-branch channel width of the Inception
	// modules; module outputs are 4 (A) or 3 (B) concatenated branches.
	InceptionWidth int
	// HeadChannels is the 3×3 conv width in the clip proposal network
	// (paper: 512, Fig. 4).
	HeadChannels int
	// RefineFC is the width of the refinement stage's fully-connected
	// layer (2nd C&R, §3.4).
	RefineFC int
	// RoISize is the RoI-pooling output (paper: 7×7, §3.3).
	RoISize int
	// UseRefine toggles the refinement stage ("w/o. Refine" in Fig. 10).
	UseRefine bool
	// UseFineTap feeds the refinement stage a second RoI pooled from the
	// stride-2 stem features alongside the deep stride-8 features. The
	// paper's full-scale network (224 px at 10 nm/px) resolves hotspot
	// geometry in its deep features; shrunk profiles lose that to the
	// pools, and the tap restores it. Off reproduces the paper exactly.
	UseFineTap bool
	// RefineIterations applies the 2nd C&R repeatedly at inference,
	// re-pooling each iteration from the regressed clips (cascade
	// regression, an extension beyond the paper's single pass). Values
	// below 2 reproduce the paper.
	RefineIterations int

	// --- clip pruning (§3.2.1) ---

	// PositiveIoU: anchors with IoU ≥ this against a ground-truth clip
	// are positive samples (paper: 0.7).
	PositiveIoU float64
	// NegativeIoU: anchors with max IoU ≤ this are negative samples
	// (paper: 0.3). Anchors in between are ignored.
	NegativeIoU float64
	// BatchAnchors is the number of anchors sampled per training step for
	// the classification loss, half positive where possible.
	BatchAnchors int

	// --- NMS and proposals ---

	// NMSThreshold is the core-IoU suppression threshold of Alg. 1
	// (paper: 0.7).
	NMSThreshold float64
	// ConventionalNMS replaces h-NMS with whole-clip-IoU suppression — an
	// extended ablation isolating the contribution of Alg. 1 (Figure 5's
	// motivation). False (use h-NMS) reproduces the paper.
	ConventionalNMS bool
	// ProposalCount is the number of top-scoring proposals kept after
	// h-NMS for the refinement stage.
	ProposalCount int
	// ScoreThreshold is the minimum final hotspot probability reported at
	// inference.
	ScoreThreshold float64

	// --- loss (§3.4) and optimization (§4) ---

	// AlphaLoc balances localization vs classification (paper: 2.0).
	AlphaLoc float64
	// L2Beta is the regularization strength β (paper: 0.2; "w/o. L2" in
	// Fig. 10 sets 0).
	L2Beta float64
	// LearningRate, LRDecayEvery, LRDecayRate and Momentum define the SGD
	// schedule (paper: 0.002, ×0.1 every 30000 steps).
	LearningRate float64
	LRDecayEvery int
	LRDecayRate  float64
	Momentum     float64
	// TrainSteps is the number of optimizer steps for Trainer.Run.
	TrainSteps int
	// BatchRegions is the number of regions whose gradients are averaged
	// per optimizer step (paper: batch size 12). 0 or 1 disables batching.
	BatchRegions int
	// GradClip bounds the global gradient norm (0 disables).
	GradClip float64
	// Seed makes weight init and anchor sampling reproducible.
	Seed int64
}

// PaperConfig returns the hyperparameters reported in §4 of the paper at
// full scale. Training this configuration in pure Go on one CPU core is
// possible but slow; it exists as the reference point that TinyConfig and
// the eval profiles shrink from.
func PaperConfig() Config {
	return Config{
		InputSize:      256,
		PitchNM:        10,
		ClipPx:         48,
		AspectRatios:   []float64{0.5, 1.0, 2.0},
		Scales:         []float64{0.25, 0.5, 1.0, 2.0},
		StemChannels:   [3]int{32, 48, 64},
		UseEncDec:      true,
		EncChannels:    [3]int{96, 128, 160},
		InceptionWidth: 64,
		HeadChannels:   512,
		RefineFC:       256,
		RoISize:        7,
		UseRefine:      true,
		UseFineTap:     false, // paper-faithful at full scale

		PositiveIoU:    0.7,
		NegativeIoU:    0.3,
		BatchAnchors:   128,
		NMSThreshold:   0.7,
		ProposalCount:  32,
		ScoreThreshold: 0.5,
		AlphaLoc:       2.0,
		L2Beta:         0.2,
		LearningRate:   0.002,
		LRDecayEvery:   30000,
		LRDecayRate:    0.1,
		Momentum:       0.9,
		TrainSteps:     90000,
		BatchRegions:   12,
		GradClip:       10,
		Seed:           1,
	}
}

// TinyConfig returns a drastically shrunk configuration — same topology,
// small tensors — that trains end-to-end in seconds. Unit tests and the
// benchmark harness build on it.
func TinyConfig() Config {
	c := PaperConfig()
	c.InputSize = 64
	c.PitchNM = 12
	c.ClipPx = 16
	c.StemChannels = [3]int{6, 8, 12}
	c.EncChannels = [3]int{16, 20, 24}
	c.InceptionWidth = 8
	c.HeadChannels = 32
	c.RefineFC = 48
	c.BatchAnchors = 48
	c.ProposalCount = 16
	c.LearningRate = 0.01
	c.LRDecayEvery = 0
	c.TrainSteps = 60
	c.BatchRegions = 1
	c.UseFineTap = true
	// β scales with the learning rate: the paper's 0.2 at lr 0.002 has the
	// same per-step weight decay as 0.04 at lr 0.01; with momentum 0.9 the
	// effective decay is amplified ~10×, so stay well below that.
	c.L2Beta = 0.01
	return c
}

// FeatureStride is the total downsampling factor between input raster and
// feature map: two stem pools (×4) and the stride-2 Inception module B
// (×2).
const FeatureStride = 8

// Validate checks internal consistency and returns a descriptive error.
func (c Config) Validate() error {
	if c.InputSize <= 0 || c.InputSize%FeatureStride != 0 {
		return fmt.Errorf("hsd: InputSize %d must be a positive multiple of %d", c.InputSize, FeatureStride)
	}
	if c.PitchNM <= 0 {
		return fmt.Errorf("hsd: PitchNM must be positive")
	}
	if c.ClipPx <= 0 || c.ClipPx > float64(c.InputSize) {
		return fmt.Errorf("hsd: ClipPx %v out of range for input %d", c.ClipPx, c.InputSize)
	}
	if len(c.AspectRatios) == 0 || len(c.Scales) == 0 {
		return fmt.Errorf("hsd: anchors require at least one aspect ratio and scale")
	}
	if c.PositiveIoU <= c.NegativeIoU {
		return fmt.Errorf("hsd: PositiveIoU %v must exceed NegativeIoU %v", c.PositiveIoU, c.NegativeIoU)
	}
	if c.NMSThreshold <= 0 || c.NMSThreshold > 1 {
		return fmt.Errorf("hsd: NMSThreshold %v out of (0,1]", c.NMSThreshold)
	}
	if c.RoISize <= 0 {
		return fmt.Errorf("hsd: RoISize must be positive")
	}
	return nil
}

// FeatureSize returns the feature-map side length.
func (c Config) FeatureSize() int { return c.InputSize / FeatureStride }

// AnchorsPerCell returns the anchor group size (12 in the paper).
func (c Config) AnchorsPerCell() int { return len(c.AspectRatios) * len(c.Scales) }

// RegionNM returns the physical region size covered by one input raster.
func (c Config) RegionNM() int { return int(float64(c.InputSize) * c.PitchNM) }

// ClipNM returns the ground-truth clip size in nanometres.
func (c Config) ClipNM() float64 { return c.ClipPx * c.PitchNM }

// HaloNM is the megatile seam margin in nanometres: half a clip, so the
// two-halo overlap between adjacent megatiles is one clip, the classic
// sliding-window guarantee that a seam hotspot is seen whole by at least
// one pass. Adjacent megatiles overlap by two halos and detections
// are owned by the megatile whose edge is at least one halo away from
// their clip centre (DESIGN.md §11). The network's theoretical receptive
// field is wider than this; the halo bounds the *clip-containment*
// margin, while border-induced numeric drift decays over the effective
// receptive field — hence the bit-identity caveat at megatile borders.
func (c Config) HaloNM() int { return (int(c.ClipNM()) + 1) / 2 }
