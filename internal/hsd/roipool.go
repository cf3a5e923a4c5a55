package hsd

import (
	"math"

	"rhsd/internal/geom"
	"rhsd/internal/tensor"
)

// RoIPool implements Region-of-Interest pooling (§3.3, Figure 7): each
// proposal clip, given in input-pixel coordinates, is scaled down to the
// feature map, divided into Size×Size bins and max-pooled per bin,
// producing a fixed-size tensor per proposal regardless of clip shape —
// "which reserves the whole feature information and makes further hotspot
// classification and regression feasible".
type RoIPool struct {
	Size   int     // output spatial size (paper: 7)
	Stride float64 // feature stride (input px per feature px)

	feat *tensor.Tensor // cached feature map [1, C, H, W]
	arg  []int32        // argmax flat index into the feature plane, or -1
}

// NewRoIPool constructs a pooling module.
func NewRoIPool(size int, stride float64) *RoIPool {
	return &RoIPool{Size: size, Stride: stride}
}

// Forward pools each RoI from feat [1, C, H, W] into [R, C, Size, Size],
// caching the feature map and recording each output's argmax for
// Backward. Empty bins (possible for degenerate RoIs) produce 0 with no
// gradient.
func (p *RoIPool) Forward(feat *tensor.Tensor, rois []geom.Rect) *tensor.Tensor {
	p.feat = feat
	out := tensor.New(len(rois), feat.Dim(1), p.Size, p.Size)
	p.arg = make([]int32, out.Size())
	p.pool(out, feat, rois, p.arg)
	return out
}

// Infer pools each RoI into workspace memory without recording argmax
// indices or caching the feature map — the allocation-free counterpart
// of Forward for the detection path, through the same pooling loop.
func (p *RoIPool) Infer(ws *tensor.Workspace, feat *tensor.Tensor, rois []geom.Rect) *tensor.Tensor {
	// Zeroed output: degenerate bins and out-of-extent RoIs rely on it.
	out := ws.ZeroTensor(len(rois), feat.Dim(1), p.Size, p.Size)
	p.pool(out, feat, rois, nil)
	return out
}

// pool max-pools every RoI's bins from feat into the zeroed out. When arg
// is non-nil it also records each output's argmax, a flat index into
// feat, or -1 for an empty bin.
func (p *RoIPool) pool(out, feat *tensor.Tensor, rois []geom.Rect, arg []int32) {
	c, h, w := feat.Dim(1), feat.Dim(2), feat.Dim(3)
	for i := range arg {
		arg[i] = -1
	}
	oi := 0
	for _, roi := range rois {
		// Scale the clip from input coordinates onto the feature map,
		// clamped to the feature extent.
		fx0 := clampF(roi.X0/p.Stride, 0, float64(w))
		fx1 := clampF(roi.X1/p.Stride, 0, float64(w))
		fy0 := clampF(roi.Y0/p.Stride, 0, float64(h))
		fy1 := clampF(roi.Y1/p.Stride, 0, float64(h))
		if fx1-fx0 <= 0 || fy1-fy0 <= 0 {
			// The RoI lies entirely outside the feature extent: emit zeros
			// with no gradient.
			oi += c * p.Size * p.Size
			continue
		}
		bw := (fx1 - fx0) / float64(p.Size)
		bh := (fy1 - fy0) / float64(p.Size)
		for ch := 0; ch < c; ch++ {
			plane := feat.Data()[ch*h*w : (ch+1)*h*w]
			for by := 0; by < p.Size; by++ {
				y0 := int(math.Floor(fy0 + float64(by)*bh))
				y1 := int(math.Ceil(fy0 + float64(by+1)*bh))
				y0, y1 = clampBin(y0, y1, h)
				for bx := 0; bx < p.Size; bx++ {
					x0 := int(math.Floor(fx0 + float64(bx)*bw))
					x1 := int(math.Ceil(fx0 + float64(bx+1)*bw))
					x0, x1 = clampBin(x0, x1, w)
					best := float32(math.Inf(-1))
					bestIdx := int32(-1)
					for y := y0; y < y1; y++ {
						for x := x0; x < x1; x++ {
							if v := plane[y*w+x]; v > best {
								best = v
								bestIdx = int32(ch*h*w + y*w + x)
							}
						}
					}
					if bestIdx >= 0 {
						out.Data()[oi] = best
						if arg != nil {
							arg[oi] = bestIdx
						}
					}
					oi++
				}
			}
		}
	}
}

// Backward scatters the pooled gradient [R, C, Size, Size] back onto the
// feature map, accumulating where RoIs overlap.
func (p *RoIPool) Backward(gy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.feat.Shape()...)
	for i, a := range p.arg {
		if a >= 0 {
			dx.Data()[a] += gy.Data()[i]
		}
	}
	return dx
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// clampBin clamps a bin to the plane and guarantees at least one pixel
// when the RoI has any extent at all in range.
func clampBin(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi <= lo {
		if lo >= n {
			lo = n - 1
		}
		hi = lo + 1
		if hi > n {
			return 0, 0
		}
	}
	return lo, hi
}
