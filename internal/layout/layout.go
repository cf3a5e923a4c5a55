// Package layout models Manhattan VLSI layout geometry — the metal-layer
// rectangles a hotspot detector consumes — together with rasterization to
// image tensors and window/clip extraction.
//
// Coordinates are integer nanometres on a design grid. The raster
// convention maps layout x to image columns and layout y to image rows, at
// a caller-chosen pitch of nanometres per pixel, so a 256×256 image at
// 10 nm/px covers a 2.56 µm square region as in the paper's setup (§4).
package layout

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"rhsd/internal/geom"
	"rhsd/internal/tensor"
)

// rasterizedPixels counts every pixel Rasterize and RasterizeInto
// rendered since the last reset, across all goroutines. It instruments
// redundant-raster regressions: a full-chip scan that re-rasterizes
// overlap strips per tile shows up as a pixel count well above the
// window area, while the megatile scan stays within window area + seam
// overlap (pinned by TestMegatileRasterizesWindowOnce in internal/hsd).
var rasterizedPixels atomic.Int64

// RasterizedPixels reports the pixels rasterized since the last reset.
func RasterizedPixels() int64 { return rasterizedPixels.Load() }

// ResetRasterizedPixels zeroes the rasterized-pixel counter.
func ResetRasterizedPixels() { rasterizedPixels.Store(0) }

// Rect is an axis-aligned rectangle on the nanometre grid, spanning
// [X0,X1) × [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// R is shorthand for constructing a Rect.
func R(x0, y0, x1, y1 int) Rect { return Rect{X0: x0, Y0: y0, X1: x1, Y1: y1} }

// Canon returns r with coordinates ordered so X0<=X1 and Y0<=Y1.
func (r Rect) Canon() Rect {
	if r.X0 > r.X1 {
		r.X0, r.X1 = r.X1, r.X0
	}
	if r.Y0 > r.Y1 {
		r.Y0, r.Y1 = r.Y1, r.Y0
	}
	return r
}

// W returns the width in nm.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the height in nm.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Empty reports whether r has no interior.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Overlaps reports whether r and o share interior area.
func (r Rect) Overlaps(o Rect) bool {
	return r.X0 < o.X1 && o.X0 < r.X1 && r.Y0 < o.Y1 && o.Y0 < r.Y1
}

// Geom converts to a float rectangle.
func (r Rect) Geom() geom.Rect {
	return geom.Rect{X0: float64(r.X0), Y0: float64(r.Y0), X1: float64(r.X1), Y1: float64(r.Y1)}
}

// Layout is a single-layer Manhattan layout: a bag of metal rectangles
// within a bounding die area.
type Layout struct {
	// Bounds is the die (or region) extent in nm.
	Bounds Rect
	// Rects are the metal shapes. Overlapping rectangles are allowed and
	// union semantics apply (as in real mask data).
	Rects []Rect
}

// New creates an empty layout with the given bounds.
func New(bounds Rect) *Layout {
	return &Layout{Bounds: bounds.Canon()}
}

// Add appends a shape (canonicalized). Degenerate rectangles are ignored.
func (l *Layout) Add(r Rect) {
	r = r.Canon()
	if r.Empty() {
		return
	}
	l.Rects = append(l.Rects, r)
}

// Window returns the shapes intersecting the window w, clipped to it and
// re-expressed in window-relative coordinates.
func (l *Layout) Window(w Rect) *Layout {
	w = w.Canon()
	out := New(Rect{0, 0, w.W(), w.H()})
	for _, r := range l.Rects {
		if !r.Overlaps(w) {
			continue
		}
		c := Rect{
			X0: max(r.X0, w.X0) - w.X0,
			Y0: max(r.Y0, w.Y0) - w.Y0,
			X1: min(r.X1, w.X1) - w.X0,
			Y1: min(r.Y1, w.Y1) - w.Y0,
		}
		out.Add(c)
	}
	return out
}

// Density returns the fraction of the bounding area covered by metal,
// computed on a coarse scan grid. It is used by the synthetic benchmark
// generator to verify case statistics.
func (l *Layout) Density(gridNM int) float64 {
	if gridNM <= 0 {
		gridNM = 1
	}
	w := (l.Bounds.W() + gridNM - 1) / gridNM
	h := (l.Bounds.H() + gridNM - 1) / gridNM
	if w == 0 || h == 0 {
		return 0
	}
	img := l.Rasterize(l.Bounds, float64(gridNM))
	return img.Sum() / float64(w*h)
}

// Rasterize renders the shapes inside window into a [1, H, W] tensor with
// value 1 for metal and 0 for space, at pitch nm per pixel. A pixel is
// metal when its centre lies inside any shape, which makes the raster
// translation-consistent for shifts that are multiples of the pitch.
func (l *Layout) Rasterize(window Rect, pitch float64) *tensor.Tensor {
	data, h, w := l.RasterizeInto(nil, window, pitch)
	return tensor.FromSlice(data, 1, h, w)
}

// RasterizeInto is Rasterize into buf's memory: it returns the same
// pixels row-major in buf (grown when its capacity is short) together
// with the raster's height and width. Callers rasterizing window after
// window reuse one buffer instead of allocating a tensor per window.
func (l *Layout) RasterizeInto(buf []float32, window Rect, pitch float64) (data []float32, hpx, wpx int) {
	window = window.Canon()
	if pitch <= 0 {
		panic("layout: Rasterize requires positive pitch")
	}
	wpx = int(float64(window.W())/pitch + 0.5)
	hpx = int(float64(window.H())/pitch + 0.5)
	if wpx <= 0 || hpx <= 0 {
		panic(fmt.Sprintf("layout: window %v too small for pitch %v", window, pitch))
	}
	rasterizedPixels.Add(int64(wpx) * int64(hpx))
	if cap(buf) < wpx*hpx {
		buf = make([]float32, wpx*hpx)
	}
	data = buf[:wpx*hpx]
	clear(data)
	for _, r := range l.Rects {
		if !r.Overlaps(window) {
			continue
		}
		// Pixel p's centre sits at (p+0.5)*pitch window-relative; the pixel
		// is metal when r0 <= centre < r1, i.e. p in
		// [ceil(r0/pitch - 0.5), ceil(r1/pitch - 0.5)).
		y0 := pixelLo(float64(r.Y0-window.Y0), pitch)
		y1 := pixelLo(float64(r.Y1-window.Y0), pitch)
		x0 := pixelLo(float64(r.X0-window.X0), pitch)
		x1 := pixelLo(float64(r.X1-window.X0), pitch)
		y0, y1 = clampRange(y0, y1, hpx)
		x0, x1 = clampRange(x0, x1, wpx)
		for y := y0; y < y1; y++ {
			row := data[y*wpx : (y+1)*wpx]
			for x := x0; x < x1; x++ {
				row[x] = 1
			}
		}
	}
	return data, hpx, wpx
}

// pixelLo returns the first pixel whose centre (p+0.5)*pitch >= coord.
func pixelLo(coord, pitch float64) int {
	return int(math.Ceil(coord/pitch - 0.5))
}

func clampRange(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Save writes the layout in a simple line-oriented text format:
//
//	BOUNDS x0 y0 x1 y1
//	RECT x0 y0 x1 y1
//	...
func (l *Layout) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "BOUNDS %d %d %d %d\n",
		l.Bounds.X0, l.Bounds.Y0, l.Bounds.X1, l.Bounds.Y1); err != nil {
		return err
	}
	for _, r := range l.Rects {
		if _, err := fmt.Fprintf(bw, "RECT %d %d %d %d\n", r.X0, r.Y0, r.X1, r.Y1); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load parses the format written by Save. It trusts its input: no size
// limits are applied, and a syntactically valid but degenerate layout
// (e.g. empty bounds) is returned as-is. Serving paths that read layouts
// from the network use ParseChecked instead.
func Load(r io.Reader) (*Layout, error) {
	return parse(r, Limits{})
}

// Limits bound what ParseChecked accepts from an untrusted source. The
// zero value of a field means "use the DefaultLimits value"; Load parses
// with no limits at all.
type Limits struct {
	// MaxRects caps the RECT record count; parsing stops with an error as
	// soon as the cap is crossed, before the extra records are stored.
	MaxRects int
	// MaxDimNM caps the bounds width and height. Scan memory downstream
	// grows with (dim/region)² tile descriptors, so a daemon must bound
	// the die size a request may declare.
	MaxDimNM int
}

// DefaultLimits are the ParseChecked bounds used when a Limits field is
// zero: 1M rectangles and ~2 mm of die per axis — generous for a region
// detection request, far below anything that could exhaust memory.
func DefaultLimits() Limits {
	return Limits{MaxRects: 1 << 20, MaxDimNM: 1 << 21}
}

func (lim Limits) withDefaults() Limits {
	d := DefaultLimits()
	if lim.MaxRects <= 0 {
		lim.MaxRects = d.MaxRects
	}
	if lim.MaxDimNM <= 0 {
		lim.MaxDimNM = d.MaxDimNM
	}
	return lim
}

// ParseChecked parses the Save format from an untrusted reader with the
// given limits (zero fields take DefaultLimits) and validates the result
// for consumption by the detection stack: bounds must be non-empty and no
// larger than lim.MaxDimNM per axis, and at most lim.MaxRects shapes are
// accepted. Violations and syntax errors return descriptive errors;
// ParseChecked never panics.
func ParseChecked(r io.Reader, lim Limits) (*Layout, error) {
	return parse(r, lim.withDefaults())
}

// parse is the shared scan loop; a zero Limits field disables that check.
func parse(r io.Reader, lim Limits) (*Layout, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var l *Layout
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || text[0] == '#' {
			continue
		}
		var kind string
		var x0, y0, x1, y1 int
		if _, err := fmt.Sscanf(text, "%s %d %d %d %d", &kind, &x0, &y0, &x1, &y1); err != nil {
			// A failed read (e.g. a body-size limit) leaves the scanner
			// holding a partial final line; report the reader's error, not
			// the syntax error of the truncated fragment.
			if serr := sc.Err(); serr != nil {
				return nil, fmt.Errorf("layout: reading input: %w", serr)
			}
			return nil, fmt.Errorf("layout: line %d: %w", line, err)
		}
		switch kind {
		case "BOUNDS":
			b := Rect{x0, y0, x1, y1}.Canon()
			if lim.MaxDimNM > 0 {
				if b.Empty() {
					return nil, fmt.Errorf("layout: line %d: empty BOUNDS %v", line, b)
				}
				if b.W() > lim.MaxDimNM || b.H() > lim.MaxDimNM {
					return nil, fmt.Errorf("layout: line %d: BOUNDS %d×%d nm exceed the %d nm limit",
						line, b.W(), b.H(), lim.MaxDimNM)
				}
			}
			l = New(b)
		case "RECT":
			if l == nil {
				return nil, fmt.Errorf("layout: line %d: RECT before BOUNDS", line)
			}
			if lim.MaxRects > 0 && len(l.Rects) >= lim.MaxRects {
				return nil, fmt.Errorf("layout: line %d: more than %d RECT records", line, lim.MaxRects)
			}
			l.Add(Rect{x0, y0, x1, y1})
		default:
			return nil, fmt.Errorf("layout: line %d: unknown record %q", line, kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("layout: reading input: %w", err)
	}
	if l == nil {
		return nil, fmt.Errorf("layout: no BOUNDS record found")
	}
	return l, nil
}

// SortedRects returns a copy of the shapes sorted by (Y0, X0, X1, Y1),
// giving deterministic iteration independent of insertion order.
func (l *Layout) SortedRects() []Rect {
	rs := append([]Rect(nil), l.Rects...)
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
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
	return rs
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
