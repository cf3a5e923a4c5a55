package tensor

import (
	"fmt"
	"os"
	"testing"
)

// Opt-in KC/NC cache-block sweep, the measurement behind the per-kernel
// blocking defaults in gemm_micro_amd64.go and qgemm_micro_amd64.go:
//
//	RHSD_BLOCK_SWEEP=1 go test ./internal/tensor -run '^$' -bench BlockSweep -benchtime 200ms
//
// The sweep clones the registered kernels with candidate geometries and
// times the full packed GEMM at representative backbone shapes. It is
// explicitly opt-in: blocking choices are host-dependent and the suite
// must stay fast and deterministic by default.
//
// Constraint reminder when retuning from its output: fp32 KC must stay
// equal across every kernel of one rounding family (the KC grouping of
// the k-sum is part of the family's bit-stability contract); NC is
// numerics-free on both paths, and the int8 kernels' integer
// accumulation is exact so even their KC may differ per kernel. NC must
// remain a multiple of NR (pack-buffer sizing), KC a multiple of 4 on
// the int8 path.

// sweepShapes are (m, k, n) GEMM shapes from the detection backbone:
// the headline bench shape [64×576×3136] (64-out 3×3 conv over 64
// channels at 56×56) and a deeper, narrower late-stage shape.
var sweepShapes = [][3]int{
	{64, 576, 3136},
	{128, 1152, 784},
}

func BenchmarkGemmBlockSweep(b *testing.B) {
	if os.Getenv("RHSD_BLOCK_SWEEP") == "" {
		b.Skip("set RHSD_BLOCK_SWEEP=1 to run the cache-block sweep")
	}
	kcs := []int{128, 192, 256, 384, 512}
	ncs := []int{64, 128, 256, 512, 1024}
	for _, base := range gemmKernels.all {
		if !archKernelUsable(base) {
			continue
		}
		for _, kc := range kcs {
			for _, nc := range ncs {
				if nc%base.nr != 0 {
					continue
				}
				kr := *base
				kr.kc, kr.nc = kc, nc
				for _, sh := range sweepShapes {
					m, k, n := sh[0], sh[1], sh[2]
					a := make([]float32, m*k)
					bm := make([]float32, k*n)
					c := make([]float32, m*n)
					for i := range a {
						a[i] = float32(i%17) * 0.25
					}
					for i := range bm {
						bm[i] = float32(i%13) * 0.5
					}
					name := fmt.Sprintf("%s/kc%d/nc%d/%dx%dx%d", base.name, kc, nc, m, k, n)
					b.Run(name, func(b *testing.B) {
						b.SetBytes(int64(2 * m * n * k))
						for i := 0; i < b.N; i++ {
							gemmPackedWith(&kr, false, m, n, k, 1, a, denseB(false, k, n, bm), 0, c)
						}
					})
				}
			}
		}
	}
}

func BenchmarkQGemmBlockSweep(b *testing.B) {
	if os.Getenv("RHSD_BLOCK_SWEEP") == "" {
		b.Skip("set RHSD_BLOCK_SWEEP=1 to run the cache-block sweep")
	}
	kcs := []int{128, 256, 384, 512, 768, 1024}
	ncs := []int{64, 128, 256, 512, 1024}
	for _, base := range qgemmKernels.all {
		if !qarchKernelUsable(base) {
			continue
		}
		for _, kc := range kcs {
			for _, nc := range ncs {
				if nc%base.nr != 0 || kc%4 != 0 {
					continue
				}
				kr := *base
				kr.kc, kr.nc = kc, nc
				for _, sh := range sweepShapes {
					m, k, n := sh[0], sh[1], sh[2]
					aq := make([]int8, m*k)
					bq := make([]uint8, k*n)
					for i := range aq {
						aq[i] = int8(i%255 - 127)
					}
					for i := range bq {
						bq[i] = uint8(i % (ActQMax + 1))
					}
					ep := qtestEpilogue(m)
					pa := make([]int8, qgemmPackedSize(&kr, m, k))
					qpackA(&kr, m, k, aq, pa)
					c := make([]float32, m*n)
					name := fmt.Sprintf("%s/kc%d/nc%d/%dx%dx%d", base.name, kc, nc, m, k, n)
					b.Run(name, func(b *testing.B) {
						b.SetBytes(int64(2 * m * n * k))
						for i := 0; i < b.N; i++ {
							qgemmPackedWith(&kr, m, n, k, pa, qdenseB(k, n, bq), ep, c)
						}
					})
				}
			}
		}
	}
}
