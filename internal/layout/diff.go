package layout

import "sort"

// Diff computes the dirty regions between two layouts: the set of
// rectangles whose presence differs between old and new. It is the input
// to incremental rescanning (hsd.ScanRequest.Dirty): a megatile whose
// halo-inclusive raster window overlaps no dirty rect is guaranteed to
// rasterize to the same bytes under both layouts, so its cached
// detections remain valid.
//
// Semantics:
//
//   - Shapes are compared as a multiset of canonical rects. Adding,
//     removing, or moving a shape dirties exactly the rects involved
//     (the old position and the new one). Reordering Rects or splitting
//     the same geometry into identical rect lists in different order is
//     NOT a difference — Diff is insertion-order independent.
//   - Duplicate rects count: going from two copies of a rect to one is a
//     difference (union semantics make it render identically today, but
//     keeping the multiset contract means Diff never has to reason about
//     coverage, only identity — and a false positive only costs a
//     rescan, never correctness).
//   - A bounds change dirties everything: the union of both bounds is
//     returned as a single rect. Bounds feed window clipping and
//     density, so no per-shape reasoning is sound across a bounds edit.
//
// The returned rects are canonical, deduplicated, sorted by
// (Y0, X0, X1, Y1), and expressed in the shared chip coordinate frame.
// An empty slice means the layouts rasterize identically at any pitch
// over any window. Diff(nil, nil) is empty; a single nil side is treated
// as an empty layout with zero bounds.
func Diff(old, new *Layout) []Rect {
	if old == nil {
		old = &Layout{}
	}
	if new == nil {
		new = &Layout{}
	}
	if old.Bounds.Canon() != new.Bounds.Canon() {
		u := boundsUnion(old.Bounds.Canon(), new.Bounds.Canon())
		if u.Empty() {
			return nil
		}
		return []Rect{u}
	}

	counts := make(map[Rect]int, len(old.Rects)+len(new.Rects))
	for _, r := range old.Rects {
		r = r.Canon()
		if !r.Empty() {
			counts[r]++
		}
	}
	for _, r := range new.Rects {
		r = r.Canon()
		if !r.Empty() {
			counts[r]--
		}
	}
	var dirty []Rect
	for r, n := range counts {
		if n != 0 {
			dirty = append(dirty, r)
		}
	}
	sort.Slice(dirty, func(i, j int) bool {
		a, b := dirty[i], dirty[j]
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		if a.X0 != b.X0 {
			return a.X0 < b.X0
		}
		if a.X1 != b.X1 {
			return a.X1 < b.X1
		}
		return a.Y1 < b.Y1
	})
	return dirty
}

// boundsUnion returns the smallest rect covering both inputs, ignoring
// an empty side.
func boundsUnion(a, b Rect) Rect {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	return Rect{
		X0: min(a.X0, b.X0),
		Y0: min(a.Y0, b.Y0),
		X1: max(a.X1, b.X1),
		Y1: max(a.Y1, b.Y1),
	}
}

// AnyDirty reports whether any rect in dirty overlaps w. It is the
// invalidation predicate for one megatile: w must be the tile's full
// raster window (halo bands included), so an edit that touches only a
// neighbour-owned halo strip still invalidates this tile — the halo
// bytes feed its forward pass.
func AnyDirty(dirty []Rect, w Rect) bool {
	for _, d := range dirty {
		if d.Overlaps(w) {
			return true
		}
	}
	return false
}
