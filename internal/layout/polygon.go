package layout

import (
	"fmt"
	"sort"
)

// Rectilinear polygon support. Real mask data is polygonal; detectors and
// the litho proxy consume rectangles, so polygons are decomposed into
// horizontal slabs on insertion. The decomposition is exact for any
// simple rectilinear polygon (axis-aligned edges, no self-intersection).

// Point is a vertex on the nm grid.
type Point struct {
	X, Y int
}

// Polygon is a simple rectilinear polygon given as its vertex ring
// (either orientation, without repeating the first vertex at the end).
type Polygon struct {
	Vertices []Point
}

// Validate checks rectilinearity and basic well-formedness.
func (p Polygon) Validate() error {
	n := len(p.Vertices)
	if n < 4 {
		return fmt.Errorf("layout: polygon needs at least 4 vertices, got %d", n)
	}
	if n%2 != 0 {
		return fmt.Errorf("layout: rectilinear polygon must have an even vertex count, got %d", n)
	}
	for i := 0; i < n; i++ {
		a := p.Vertices[i]
		b := p.Vertices[(i+1)%n]
		if a == b {
			return fmt.Errorf("layout: zero-length edge at vertex %d", i)
		}
		if a.X != b.X && a.Y != b.Y {
			return fmt.Errorf("layout: edge %d–%d is not axis-aligned", i, (i+1)%n)
		}
	}
	// Alternating horizontal/vertical edges.
	for i := 0; i < n; i++ {
		a := p.Vertices[i]
		b := p.Vertices[(i+1)%n]
		c := p.Vertices[(i+2)%n]
		abHoriz := a.Y == b.Y
		bcHoriz := b.Y == c.Y
		if abHoriz == bcHoriz {
			return fmt.Errorf("layout: consecutive parallel edges at vertex %d (merge collinear vertices)", (i+1)%n)
		}
	}
	return nil
}

// Decompose slices the polygon into non-overlapping rectangles using
// horizontal slab decomposition: between each pair of consecutive
// distinct Y coordinates, the polygon's interior is a set of disjoint X
// intervals obtained from the vertical edges crossing the slab.
func (p Polygon) Decompose() ([]Rect, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Vertices)
	// Collect vertical edges and slab boundaries.
	type vedge struct {
		x, y0, y1 int
	}
	var edges []vedge
	ys := make([]int, 0, n)
	for i := 0; i < n; i++ {
		a := p.Vertices[i]
		b := p.Vertices[(i+1)%n]
		if a.X == b.X {
			y0, y1 := a.Y, b.Y
			if y0 > y1 {
				y0, y1 = y1, y0
			}
			edges = append(edges, vedge{x: a.X, y0: y0, y1: y1})
		}
		ys = append(ys, a.Y)
	}
	sort.Ints(ys)
	ys = dedupInts(ys)

	var out []Rect
	for s := 0; s+1 < len(ys); s++ {
		yLo, yHi := ys[s], ys[s+1]
		mid := yLo // any y strictly inside the slab works; use [yLo,yHi) interior test at yLo..
		// Crossing edges: those spanning the whole slab.
		var xs []int
		for _, e := range edges {
			if e.y0 <= mid && e.y1 >= yHi {
				xs = append(xs, e.x)
			}
		}
		sort.Ints(xs)
		if len(xs)%2 != 0 {
			return nil, fmt.Errorf("layout: odd crossing count in slab [%d,%d): self-intersecting polygon?", yLo, yHi)
		}
		for i := 0; i+1 < len(xs); i += 2 {
			out = append(out, Rect{X0: xs[i], Y0: yLo, X1: xs[i+1], Y1: yHi})
		}
	}
	return mergeVertical(out), nil
}

// mergeVertical coalesces vertically adjacent rectangles with identical X
// extents, undoing unnecessary slab splits.
func mergeVertical(rs []Rect) []Rect {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].X0 != rs[j].X0 {
			return rs[i].X0 < rs[j].X0
		}
		if rs[i].X1 != rs[j].X1 {
			return rs[i].X1 < rs[j].X1
		}
		return rs[i].Y0 < rs[j].Y0
	})
	var out []Rect
	for _, r := range rs {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.X0 == r.X0 && last.X1 == r.X1 && last.Y1 == r.Y0 {
				last.Y1 = r.Y1
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// AddPolygon decomposes a rectilinear polygon and adds its rectangles.
func (l *Layout) AddPolygon(p Polygon) error {
	rs, err := p.Decompose()
	if err != nil {
		return err
	}
	for _, r := range rs {
		l.Add(r)
	}
	return nil
}

// RectPolygon returns the 4-vertex polygon of a rectangle, a convenience
// for round-trip tests and GDS interchange.
func RectPolygon(r Rect) Polygon {
	r = r.Canon()
	return Polygon{Vertices: []Point{
		{r.X0, r.Y0}, {r.X1, r.Y0}, {r.X1, r.Y1}, {r.X0, r.Y1},
	}}
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
