package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"rhsd/internal/eval"
	"rhsd/internal/hsd"
	"rhsd/internal/layout"
)

// The generator writes every input a run consumes, as files, from one
// seed; the workloads read nothing else. Layout for a directory DIR:
//
//	DIR/chip.layout                  3×3 PaperConfig regions of routed metal
//	DIR/regions/region-NN.layout     PaperConfig regions cut from the chip
//	DIR/serve/warmup.layout          the serve set-up's warm-up request
//	DIR/serve/client-C/base-NNN.layout   novel layouts, in posting order
//	DIR/serve/client-C/edits.txt     one-rect edits "x0 y0 x1 y1", in order
//	DIR/serve/client-C/script.txt    request classes: N novel, E edit, R repeat

const (
	// chipSide is the chip window in PaperConfig regions per side: at
	// megatile factor 1 a 3×3 window is 4×4 = 16 megatiles.
	chipSide = 3
	// regionCount is how many region rasters region_int8 cycles through.
	regionCount = 8
	// serveSide is a serve_dfm layout in FastProfile regions per side
	// (16 megatiles at factor 1).
	serveSide    = 3
	serveClients = 2
	// Request mix of each serve_dfm client, in percent (multiples of 10).
	novelPct = 10
	editPct  = 30
)

// metalStyle is one routing style: wire width and space in nm and the
// probability that a track is populated. The three styles are the
// internal/dataset case specs (Case2/3/4 analogues).
type metalStyle struct {
	width, space int
	density      float64
}

var metalStyles = []metalStyle{{32, 48, 0.78}, {30, 42, 0.70}, {34, 56, 0.55}}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "run length the serve scripts are sized for")
	out := fs.String("out", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *seconds < 1 {
		return fmt.Errorf("gen: -out and a positive -seconds are required")
	}
	rngFor := func(stream int64) *rand.Rand { return rand.New(rand.NewSource(*seed*1009 + stream)) }

	paper := hsd.PaperConfig()
	chip := genMetal(rngFor(1), chipSide*paper.RegionNM(), paper.RegionNM()/2)
	if err := writeLayout(filepath.Join(*out, "chip.layout"), chip); err != nil {
		return err
	}
	rng := rngFor(2)
	region := paper.RegionNM()
	span := (chip.Bounds.W() - region) / int(paper.PitchNM)
	for i := 0; i < regionCount; i++ {
		x := rng.Intn(span+1) * int(paper.PitchNM)
		y := rng.Intn(span+1) * int(paper.PitchNM)
		sub := chip.Window(layout.R(x, y, x+region, y+region))
		if err := writeLayout(filepath.Join(*out, "regions", fmt.Sprintf("region-%02d.layout", i)), sub); err != nil {
			return err
		}
	}

	fast := eval.FastProfile().HSD
	side := serveSide * fast.RegionNM()
	block := fast.RegionNM() / 2
	if err := writeLayout(filepath.Join(*out, "serve", "warmup.layout"), genMetal(rngFor(3), side, block)); err != nil {
		return err
	}
	zones := exclusiveZones(fast, side)
	for c := 0; c < serveClients; c++ {
		dir := filepath.Join(*out, "serve", fmt.Sprintf("client-%d", c))
		rng := rngFor(int64(10 + c))
		// Sized well past the request count a run reaches (~20 requests
		// per second per client), so a client never runs out of script.
		script := genScript(rng, 60**seconds+200)
		var nNovel, nEdit int
		for _, k := range script {
			switch k {
			case 'N':
				nNovel++
			case 'E':
				nEdit++
			}
		}
		for i := 0; i < nNovel; i++ {
			if err := writeLayout(filepath.Join(dir, fmt.Sprintf("base-%03d.layout", i)), genMetal(rng, side, block)); err != nil {
				return err
			}
		}
		var edits strings.Builder
		for i := 0; i < nEdit; i++ {
			r := editRect(rng, zones)
			fmt.Fprintf(&edits, "%d %d %d %d\n", r.X0, r.Y0, r.X1, r.Y1)
		}
		if err := writeFile(filepath.Join(dir, "edits.txt"), []byte(edits.String())); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(dir, "script.txt"), []byte(script+"\n")); err != nil {
			return err
		}
	}
	return nil
}

// genScript draws a client's request classes in blocks of ten, each
// holding exactly the configured mix in random order, so every run
// length sees the same share of novel, edit and repeat requests. The
// first request posts a layout.
func genScript(rng *rand.Rand, n int) string {
	block := make([]byte, 0, 10)
	for i := 0; i < 10; i++ {
		switch {
		case i < novelPct/10:
			block = append(block, 'N')
		case i < (novelPct+editPct)/10:
			block = append(block, 'E')
		default:
			block = append(block, 'R')
		}
	}
	var b []byte
	for len(b) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		b = append(b, block...)
	}
	if i := bytes.IndexByte(b, 'N'); i > 0 {
		b[0], b[i] = b[i], b[0]
	}
	return string(b)
}

// genMetal draws a square window of routed metal: the window is cut into
// blocks, each routed in one orientation with one style at a jittered
// track density, then seeded with risky and decoy motifs. Blocks are
// drawn independently, so the window never repeats.
func genMetal(rng *rand.Rand, side, block int) *layout.Layout {
	l := layout.New(layout.R(0, 0, side, side))
	for by := 0; by < side; by += block {
		for bx := 0; bx < side; bx += block {
			b := layout.R(bx, by, min(bx+block, side), min(by+block, side))
			st := metalStyles[rng.Intn(len(metalStyles))]
			st.density = math.Min(0.95, math.Max(0.3, st.density+(rng.Float64()-0.5)*0.3))
			fillTracks(l, rng, st, rng.Intn(2) == 0, b)
			for i := poisson(rng, 1); i > 0; i-- {
				addMotif(l, rng, st, b, true)
			}
			for i := poisson(rng, 1); i > 0; i-- {
				addMotif(l, rng, st, b, false)
			}
		}
	}
	return l
}

// fillTracks populates the block's routing tracks with wires broken into
// segments, as internal/dataset does for its cases.
func fillTracks(l *layout.Layout, rng *rand.Rand, st metalStyle, vertical bool, b layout.Rect) {
	span, breadth := b.W(), b.H()
	if vertical {
		span, breadth = b.H(), b.W()
	}
	for t := st.space; t+st.width <= breadth; t += st.width + st.space {
		if rng.Float64() > st.density {
			continue
		}
		for pos := 0; pos < span; {
			end := min(pos+span/3+rng.Intn(span/2+1), span)
			if end-pos >= 3*st.width {
				if vertical {
					l.Add(layout.R(b.X0+t, b.Y0+pos, b.X0+t+st.width, b.Y0+end))
				} else {
					l.Add(layout.R(b.X0+pos, b.Y0+t, b.X0+end, b.Y0+t+st.width))
				}
			}
			pos = end + 2*st.space + rng.Intn(st.space+1)
		}
	}
}

// addMotif places one motif inside the block. Risky motifs are the
// weak-point families of internal/dataset (sub-resolution line, tight
// parallel pair, tip-to-tip gap between neighbours); decoys look dense
// but print (comb, jog, wide tip gap).
func addMotif(l *layout.Layout, rng *rand.Rand, st metalStyle, b layout.Rect, risky bool) {
	length := b.W()/8 + rng.Intn(b.W()/8+1)
	margin := st.width + st.space
	room := b.W() - 2*margin - 2*length
	if room <= 0 {
		return
	}
	cx := b.X0 + margin + rng.Intn(room)
	cy := b.Y0 + margin + rng.Intn(room)
	wd := st.width
	kind := rng.Intn(3)
	switch {
	case risky && kind == 0:
		l.Add(layout.R(cx, cy, cx+12+rng.Intn(4), cy+length))
	case risky && kind == 1:
		gap := 10 + rng.Intn(4)
		l.Add(layout.R(cx, cy, cx+wd, cy+length))
		l.Add(layout.R(cx+wd+gap, cy, cx+2*wd+gap, cy+length))
	case risky:
		gap := 12 + rng.Intn(6)
		half := length / 2
		l.Add(layout.R(cx, cy, cx+wd, cy+half))
		l.Add(layout.R(cx, cy+half+gap, cx+wd, cy+length+gap))
		l.Add(layout.R(cx-wd-14, cy, cx-14, cy+length+gap))
		l.Add(layout.R(cx+wd+14, cy, cx+2*wd+14, cy+length+gap))
	case kind == 0:
		gap := st.space - 8
		for i := 0; i < 3; i++ {
			x := cx + i*(wd+gap)
			l.Add(layout.R(x, cy, x+wd, cy+length))
		}
	case kind == 1:
		l.Add(layout.R(cx, cy, cx+wd, cy+length/2))
		l.Add(layout.R(cx, cy+length/2-wd, cx+length/2, cy+length/2))
		l.Add(layout.R(cx+length/2-wd, cy+length/2-wd, cx+length/2, cy+length))
	default:
		gap := 3 * st.space
		l.Add(layout.R(cx, cy, cx+wd, cy+length/2))
		l.Add(layout.R(cx, cy+length/2+gap, cx+wd, cy+length+gap))
	}
}

func poisson(rng *rand.Rand, mean float64) int {
	limit, k, p := math.Exp(-mean), 0, 1.0
	for {
		p *= rng.Float64()
		if p <= limit || k > 64 {
			return k
		}
		k++
	}
}

// exclusiveZones returns, per axis, the interval of each factor-1
// megatile that no other megatile's raster covers: an edit inside one
// such cell dirties exactly one of the 16 megatiles.
func exclusiveZones(c hsd.Config, side int) [][2]int {
	spec := c.Megatile(1)
	xs := tileOrigins(0, side, spec.RegionNM, spec.StrideNM)
	zones := make([][2]int, len(xs))
	for i, x := range xs {
		lo, hi := x, x+spec.RegionNM
		if i > 0 {
			lo = max(lo, xs[i-1]+spec.RegionNM)
		}
		if i+1 < len(xs) {
			hi = min(hi, xs[i+1])
		}
		zones[i] = [2]int{lo, hi}
	}
	return zones
}

// editRect draws one small wire inside a random exclusive zone.
func editRect(rng *rand.Rand, zones [][2]int) layout.Rect {
	zx, zy := zones[rng.Intn(len(zones))], zones[rng.Intn(len(zones))]
	w, h := 24+rng.Intn(17), 48+rng.Intn(73)
	if rng.Intn(2) == 0 {
		w, h = h, w
	}
	const margin = 8
	w = min(w, zx[1]-zx[0]-2*margin)
	h = min(h, zy[1]-zy[0]-2*margin)
	x := zx[0] + margin + rng.Intn(zx[1]-zx[0]-2*margin-w+1)
	y := zy[0] + margin + rng.Intn(zy[1]-zy[0]-2*margin-h+1)
	return layout.R(x, y, x+w, y+h)
}

func writeLayout(path string, l *layout.Layout) error {
	var b bytes.Buffer
	if err := l.Save(&b); err != nil {
		return err
	}
	return writeFile(path, b.Bytes())
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
