package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// loweredConvBackward computes Conv2DBackward's gradients item by item
// through materialized columns: dw += gy_i·Im2Col(x_i)ᵀ, into a private
// buffer per item reduced in batch order when N > 1, and
// dx_i = col2im(Wᵀ·gy_i).
func loweredConvBackward(x, wgt, gy, dw, db *Tensor, o ConvOpts) *Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oc := wgt.Dim(0)
	oh, ow := o.OutDim(h), o.OutDim(w)
	kk := c * o.Kernel * o.Kernel
	dx := New(n, c, h, w)
	var parts [][]float32
	if n > 1 {
		parts = make([][]float32, n)
	}
	for i := 0; i < n; i++ {
		col := Im2Col(FromSlice(x.Data()[i*c*h*w:(i+1)*c*h*w], c, h, w), o)
		gyi := gy.Data()[i*oc*oh*ow : (i+1)*oc*oh*ow]
		if parts != nil {
			parts[i] = make([]float32, oc*kk)
			Gemm(false, true, oc, kk, oh*ow, 1, gyi, col.Data(), 0, parts[i])
		} else {
			Gemm(false, true, oc, kk, oh*ow, 1, gyi, col.Data(), 1, dw.Data())
		}
		dcol := make([]float32, kk*oh*ow)
		Gemm(true, false, kk, oh*ow, oc, 1, wgt.Data(), gyi, 0, dcol)
		col2imInto(dcol, c, h, w, o, dx.Data()[i*c*h*w:(i+1)*c*h*w])
	}
	for _, part := range parts {
		for e, v := range part {
			dw.Data()[e] += v
		}
	}
	accumChannelBiasGrad(gy, db)
	return dx
}

// loweredDeconvBackward is the same for Deconv2DBackward:
// dw += x_i·Im2Col(gy_i)ᵀ and dx_i = W·Im2Col(gy_i).
func loweredDeconvBackward(x, wgt, gy, dw, db *Tensor, o ConvOpts) *Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oc, oh, ow := gy.Dim(1), gy.Dim(2), gy.Dim(3)
	kk := oc * o.Kernel * o.Kernel
	dx := New(n, c, h, w)
	var parts [][]float32
	if n > 1 {
		parts = make([][]float32, n)
	}
	for i := 0; i < n; i++ {
		gcol := Im2Col(FromSlice(gy.Data()[i*oc*oh*ow:(i+1)*oc*oh*ow], oc, oh, ow), o)
		xi := x.Data()[i*c*h*w : (i+1)*c*h*w]
		if parts != nil {
			parts[i] = make([]float32, c*kk)
			Gemm(false, true, c, kk, h*w, 1, xi, gcol.Data(), 0, parts[i])
		} else {
			Gemm(false, true, c, kk, h*w, 1, xi, gcol.Data(), 1, dw.Data())
		}
		Gemm(false, false, c, h*w, kk, 1, wgt.Data(), gcol.Data(), 0, dx.Data()[i*c*h*w:(i+1)*c*h*w])
	}
	for _, part := range parts {
		for e, v := range part {
			dw.Data()[e] += v
		}
	}
	accumChannelBiasGrad(gy, db)
	return dx
}

// TestConvBackwardMatchesLoweredReference pins the bits of
// Conv2DBackward and Deconv2DBackward, whose input gradients run the
// deconv and conv forward kernels, to the per-item lowering above: dx,
// dw accumulated into a non-zero buffer, and db. The shapes cover
// stride 1 and 2, even and odd extents (at stride 2 an even input
// extent has a row the conv never reads, which the deconvolution's own
// extent formula would drop), products the row kernel and the packed
// sweep take, and a weight gradient spanning several k-blocks; each at
// N = 1 and 3 and at 1 and 2 workers.
func TestConvBackwardMatchesLoweredReference(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	shapes := []struct {
		c, oc, h, w int
		o           ConvOpts
	}{
		{4, 6, 10, 10, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{4, 6, 9, 9, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{4, 6, 10, 9, ConvOpts{Kernel: 3, Stride: 2, Padding: 1}},
		{8, 16, 16, 15, ConvOpts{Kernel: 3, Stride: 2, Padding: 1}},
		{16, 8, 16, 16, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
		{3, 5, 8, 7, ConvOpts{Kernel: 2, Stride: 2, Padding: 0}},
		{1, 2, 4, 3, ConvOpts{Kernel: 3, Stride: 1, Padding: 1}},
	}
	randT := func(shape ...int) *Tensor {
		r := New(shape...)
		fillRand(r, rng)
		return r
	}
	for _, sh := range shapes {
		k := sh.o.Kernel
		for _, n := range []int{1, 3} {
			x := randT(n, sh.c, sh.h, sh.w)
			label := fmt.Sprintf("N=%d c=%d oc=%d %dx%d %+v", n, sh.c, sh.oc, sh.h, sh.w, sh.o)

			// Conv: x [N,C,H,W] → gy [N,OC,OH,OW].
			wgt := randT(sh.oc, sh.c, k, k)
			gy := randT(n, sh.oc, sh.o.OutDim(sh.h), sh.o.OutDim(sh.w))
			dw0, db0 := randT(sh.oc, sh.c, k, k), randT(sh.oc)
			wantDW, wantDB := dw0.Clone(), db0.Clone()
			wantDX := loweredConvBackward(x, wgt, gy, wantDW, wantDB, sh.o)
			for _, workers := range []int{1, 2} {
				dw, db := dw0.Clone(), db0.Clone()
				dx := runAtWorkers(workers, func() *Tensor { return Conv2DBackward(x, wgt, gy, dw, db, sh.o) })
				l := fmt.Sprintf("conv %s workers=%d", label, workers)
				assertTensorBits(t, l+" dx", wantDX, dx)
				assertTensorBits(t, l+" dw", wantDW, dw)
				assertTensorBits(t, l+" db", wantDB, db)
			}

			// Deconv: x [N,C,H,W] → gy [N,OC,(H-1)s-2p+K,…].
			oh := (sh.h-1)*sh.o.Stride - 2*sh.o.Padding + k
			ow := (sh.w-1)*sh.o.Stride - 2*sh.o.Padding + k
			wgt = randT(sh.c, sh.oc, k, k)
			gy = randT(n, sh.oc, oh, ow)
			dw0, db0 = randT(sh.c, sh.oc, k, k), randT(sh.oc)
			wantDW, wantDB = dw0.Clone(), db0.Clone()
			wantDX = loweredDeconvBackward(x, wgt, gy, wantDW, wantDB, sh.o)
			for _, workers := range []int{1, 2} {
				dw, db := dw0.Clone(), db0.Clone()
				dx := runAtWorkers(workers, func() *Tensor { return Deconv2DBackward(x, wgt, gy, dw, db, sh.o) })
				l := fmt.Sprintf("deconv %s workers=%d", label, workers)
				assertTensorBits(t, l+" dx", wantDX, dx)
				assertTensorBits(t, l+" dw", wantDW, dw)
				assertTensorBits(t, l+" db", wantDB, db)
			}
		}
	}
}
