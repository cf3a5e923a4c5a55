package hsd

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"rhsd/internal/geom"
)

func sc(cx, cy, w, h, score float64) ScoredClip {
	return ScoredClip{Clip: geom.RectCWH(cx, cy, w, h), Score: score}
}

func TestHNMSKeepsDistinctCores(t *testing.T) {
	// The Figure 5 scenario: clips whose bodies overlap strongly but whose
	// cores are distinct. Conventional NMS drops the weaker one, h-NMS
	// keeps both.
	a := ScoredClip{Clip: geom.Rect{X0: 0, Y0: 0, X1: 12, Y1: 12}, Score: 0.9}
	b := ScoredClip{Clip: geom.Rect{X0: 7, Y0: 0, X1: 19, Y1: 12}, Score: 0.5}
	if geom.IoU(a.Clip, b.Clip) < 0.2 {
		t.Fatal("scenario needs body overlap")
	}
	conv := ConventionalNMS([]ScoredClip{a, b}, 0.2)
	if len(conv) != 1 {
		t.Fatalf("conventional NMS should suppress: %d", len(conv))
	}
	hn := HNMS([]ScoredClip{a, b}, 0.2)
	if len(hn) != 2 {
		t.Fatalf("h-NMS must keep both distinct-core clips: %d", len(hn))
	}
}

func TestHNMSSuppressesSameCore(t *testing.T) {
	clips := []ScoredClip{
		sc(50, 50, 20, 20, 0.9),
		sc(51, 50, 20, 20, 0.8), // nearly identical core
		sc(50, 51, 20, 20, 0.7),
	}
	out := HNMS(clips, 0.7)
	if len(out) != 1 || out[0].Score != 0.9 {
		t.Fatalf("same-core clips must collapse to the best: %v", out)
	}
}

func TestHNMSProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		clips := make([]ScoredClip, n)
		for i := range clips {
			clips[i] = sc(rng.Float64()*100, rng.Float64()*100,
				5+rng.Float64()*30, 5+rng.Float64()*30, rng.Float64())
		}
		out := HNMS(clips, 0.7)
		// 1. Output is a subset of the input.
		for _, o := range out {
			found := false
			for _, c := range clips {
				if c == o {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// 2. Sorted by descending score.
		for i := 1; i < len(out); i++ {
			if out[i].Score > out[i-1].Score {
				return false
			}
		}
		// 3. Pairwise core-IoU below threshold.
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if geom.CoreIoU(out[i].Clip, out[j].Clip) > 0.7 {
					return false
				}
			}
		}
		// 4. Idempotence.
		again := HNMS(out, 0.7)
		if len(again) != len(out) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHNMSDoesNotMutateInput(t *testing.T) {
	clips := []ScoredClip{sc(0, 0, 10, 10, 0.1), sc(50, 50, 10, 10, 0.9)}
	HNMS(clips, 0.7)
	if clips[0].Score != 0.1 || clips[1].Score != 0.9 {
		t.Fatal("input order mutated")
	}
}

func TestHNMSEmpty(t *testing.T) {
	if out := HNMS(nil, 0.7); len(out) != 0 {
		t.Fatalf("empty in, empty out: %v", out)
	}
}

func TestTopK(t *testing.T) {
	clips := []ScoredClip{
		sc(0, 0, 10, 10, 0.3),
		sc(0, 0, 10, 10, 0.9),
		sc(0, 0, 10, 10, 0.6),
	}
	top := TopK(clips, 2)
	if len(top) != 2 || top[0].Score != 0.9 || top[1].Score != 0.6 {
		t.Fatalf("topk: %v", top)
	}
	all := TopK(clips, 0)
	if len(all) != 3 {
		t.Fatalf("k<=0 keeps all: %v", all)
	}
	if len(TopK(clips, 10)) != 3 {
		t.Fatal("k beyond len keeps all")
	}
}

// referenceNMS is the unoptimized suppression loop without the
// disjointness quick-reject, kept as the oracle for the optimized path.
func referenceNMS(clips []ScoredClip, threshold float64, overlap func(a, b geom.Rect) float64) []ScoredClip {
	sorted := append([]ScoredClip(nil), clips...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	removed := make([]bool, len(sorted))
	var out []ScoredClip
	for i := range sorted {
		if removed[i] {
			continue
		}
		out = append(out, sorted[i])
		for j := i + 1; j < len(sorted); j++ {
			if removed[j] || overlap(sorted[i].Clip, sorted[j].Clip) <= threshold {
				continue
			}
			removed[j] = true
		}
	}
	return out
}

// TestNMSQuickRejectExact pins that the disjointness quick-reject never
// changes a suppression decision: on dense random candidate sets — many
// disjoint pairs, many barely-overlapping ones — the optimized HNMS and
// ConventionalNMS match the reject-free reference exactly.
func TestNMSQuickRejectExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(200)
		clips := make([]ScoredClip, n)
		for i := range clips {
			x := rng.Float64() * 200
			y := rng.Float64() * 200
			w := 4 + rng.Float64()*30
			h := 4 + rng.Float64()*30
			clips[i] = ScoredClip{
				Clip:  geom.Rect{X0: x, Y0: y, X1: x + w, Y1: y + h},
				Score: rng.Float64(),
			}
		}
		for _, th := range []float64{0, 0.3, 0.7} {
			got := HNMS(clips, th)
			want := referenceNMS(clips, th, geom.CoreIoU)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d threshold %v: HNMS diverged from reference (%d vs %d survivors)",
					trial, th, len(got), len(want))
			}
			got = ConventionalNMS(clips, th)
			want = referenceNMS(clips, th, geom.IoU)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d threshold %v: ConventionalNMS diverged from reference", trial, th)
			}
		}
	}
}

// TestNaNScoreOrdering pins the one ranking the two proposal paths
// share: finite scores descending, NaN scores last in input order. The
// allocating TopK/HNMS/ConventionalNMS (Model.Proposals) must return
// exactly what Detect's scratch-backed topKInto/nmsInto return on the
// same input — a `>` comparator leaves [0.5 NaN 0.7 0.6 NaN 0.9]
// unsorted around the NaNs, which is the disagreement this guards.
func TestNaNScoreOrdering(t *testing.T) {
	nan := math.NaN()
	clips := []ScoredClip{
		sc(10, 10, 8, 8, 0.5),
		sc(40, 10, 8, 8, nan),
		sc(70, 10, 8, 8, 0.7),
		sc(10, 40, 8, 8, 0.6),
		sc(70, 10, 8, 8, nan), // same clip as the 0.7 one: suppressed
		sc(40, 40, 8, 8, 0.9),
	}
	same := func(label string, want, got []ScoredClip) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: %d clips vs %d", label, len(want), len(got))
		}
		for i := range want {
			if want[i].Clip != got[i].Clip ||
				math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
				t.Fatalf("%s: clip %d = %+v vs %+v", label, i, want[i], got[i])
			}
		}
	}

	ranked := TopK(clips, 0)
	order := []int{5, 2, 3, 0, 1, 4}
	for i, src := range order {
		if ranked[i].Clip != clips[src].Clip {
			t.Fatalf("TopK rank %d is input clip with score %v, want input %d (score %v)",
				i, ranked[i].Score, src, clips[src].Score)
		}
	}
	for k := 0; k <= len(clips); k++ {
		same("TopK vs topKInto", TopK(clips, k), topKInto(nil, clips, k))
	}

	for _, conventional := range []bool{false, true} {
		m := &Model{Config: TinyConfig()}
		m.Config.ConventionalNMS = conventional
		want := m.nms(clips)
		got := m.nmsInto(&detectScratch{}, clips)
		same("nms vs nmsInto", want, got)
		if n := len(want); n != 5 || !math.IsNaN(want[n-1].Score) {
			t.Fatalf("conventional=%v: survivors %+v, want 5 ending in the lone NaN clip", conventional, want)
		}
	}
}
