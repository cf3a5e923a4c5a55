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
// to another NaN). topKInto and nms sort stably with it, so everything
// that ranks clips — TopK, HNMS, ConventionalNMS, Model.Proposals and
// Detect — ranks identically even when a score is NaN: a `>` comparator
// is not a strict weak order once a NaN is present and would leave the
// input unsorted around it.
func byScoreDesc(a, b ScoredClip) int { return cmp.Compare(b.Score, a.Score) }

// HNMS implements hotspot non-maximum suppression (Algorithm 1): clips are
// sorted by descending classification score (byScoreDesc) and a clip is removed when the
// IoU of its *core region* with a higher-scoring survivor exceeds the
// threshold. Keying on cores instead of whole clips preserves clips whose
// outer rings overlap but whose hotspot cores are distinct (Figure 5).
// The input slice is not modified; survivors are returned sorted by
// descending score.
func HNMS(clips []ScoredClip, threshold float64) []ScoredClip {
	return nms(&detectScratch{}, clips, threshold, geom.CoreIoU)
}

// ConventionalNMS is the classic whole-clip-IoU suppression used by the
// generic Faster R-CNN and SSD baselines.
func ConventionalNMS(clips []ScoredClip, threshold float64) []ScoredClip {
	return nms(&detectScratch{}, clips, threshold, geom.IoU)
}

// nms is the one suppression loop. Its sort, removal and survivor
// buffers come from s; the result aliases s.kept, so a caller handing in
// a fresh scratch (HNMS, ConventionalNMS, Model.nms) owns it outright.
func nms(s *detectScratch, clips []ScoredClip, threshold float64, overlap func(a, b geom.Rect) float64) []ScoredClip {
	s.sorted = topKInto(s.sorted, clips, 0)
	sorted := s.sorted
	if cap(s.removed) < len(sorted) {
		s.removed = make([]bool, len(sorted))
	}
	removed := s.removed[:len(sorted)]
	clear(removed)
	s.kept = s.kept[:0]
	// Disjoint clips (and therefore their cores) have overlap exactly 0,
	// so for the usual non-negative thresholds the expensive IoU can be
	// skipped without changing any suppression decision. Megatile scans
	// push O(area)-scaled candidate sets through this O(n·kept) loop;
	// the quick reject keeps the pair cost at four comparisons.
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

// TopK returns the k highest-scoring clips (all of them when k <= 0 or
// k >= len), ranked by byScoreDesc, in a slice of its own.
func TopK(clips []ScoredClip, k int) []ScoredClip { return topKInto(nil, clips, k) }

// topKInto is TopK into dst's memory: it copies clips into dst, sorts
// them stably by byScoreDesc and truncates to k. The returned slice
// aliases dst.
func topKInto(dst []ScoredClip, clips []ScoredClip, k int) []ScoredClip {
	dst = append(dst[:0], clips...)
	slices.SortStableFunc(dst, byScoreDesc)
	if k > 0 && k < len(dst) {
		dst = dst[:k]
	}
	return dst
}
