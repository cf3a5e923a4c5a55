package hsd

import (
	"cmp"
	"slices"

	"rhsd/internal/geom"
)

// ScoredClip is a candidate clip with its hotspot classification score.
type ScoredClip struct {
	Clip  geom.Rect
	Score float64
}

// byScoreDesc is the one ranking of the package: descending score, with
// NaN scores last (cmp.Compare orders NaN below every number, and equal
// to another NaN). TopK, HNMS and ConventionalNMS and their
// scratch-backed twins on the Detect path (topKInto, nmsInto) all sort
// stably with it, so Model.Proposals and Detect rank identically even
// when a score is NaN — a `>` comparator is not a strict weak order
// once a NaN is present and would leave the input unsorted around it.
func byScoreDesc(a, b ScoredClip) int { return cmp.Compare(b.Score, a.Score) }

// HNMS implements hotspot non-maximum suppression (Algorithm 1): clips are
// sorted by descending classification score (byScoreDesc) and a clip is removed when the
// IoU of its *core region* with a higher-scoring survivor exceeds the
// threshold. Keying on cores instead of whole clips preserves clips whose
// outer rings overlap but whose hotspot cores are distinct (Figure 5).
// The input slice is not modified; survivors are returned sorted by
// descending score.
func HNMS(clips []ScoredClip, threshold float64) []ScoredClip {
	return nms(clips, threshold, geom.CoreIoU)
}

// ConventionalNMS is the classic whole-clip-IoU suppression used by the
// generic Faster R-CNN and SSD baselines.
func ConventionalNMS(clips []ScoredClip, threshold float64) []ScoredClip {
	return nms(clips, threshold, geom.IoU)
}

func nms(clips []ScoredClip, threshold float64, overlap func(a, b geom.Rect) float64) []ScoredClip {
	sorted := append([]ScoredClip(nil), clips...)
	slices.SortStableFunc(sorted, byScoreDesc)
	removed := make([]bool, len(sorted))
	// Disjoint clips (and therefore their cores) have overlap exactly 0,
	// so for the usual non-negative thresholds the expensive IoU can be
	// skipped without changing any suppression decision. Megatile scans
	// push O(area)-scaled candidate sets through this O(n·kept) loop;
	// the quick reject keeps the pair cost at four comparisons.
	quick := threshold >= 0
	var out []ScoredClip
	for i := range sorted {
		if removed[i] {
			continue
		}
		out = append(out, sorted[i])
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
	return out
}

// TopK returns the k highest-scoring clips (all of them when k <= 0 or
// k >= len), ranked by byScoreDesc.
func TopK(clips []ScoredClip, k int) []ScoredClip {
	sorted := append([]ScoredClip(nil), clips...)
	slices.SortStableFunc(sorted, byScoreDesc)
	if k > 0 && k < len(sorted) {
		sorted = sorted[:k]
	}
	return sorted
}
