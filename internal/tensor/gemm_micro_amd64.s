// SSE micro-kernel for the packed GEMM: a 4×8 register tile accumulated
// over kc packed steps.
//
//   acc[r*8+s] = Σ_p pa[p*4+r] · pb[p*8+s]
//
// The 4×8 tile lives in X0–X7 (two 4-lane vectors per row). Each step
// loads one 8-wide B slice (X8, X9), broadcasts the 4 A values in turn
// (X12) and does mul-then-add per row — MOVAPS+MULPS+ADDPS, not FMA, so
// every lane rounds exactly like the portable Go kernel.
//
// func gemmMicro4x8SSE(kc int, pa, pb *float32, acc *[32]float32)
#include "textflag.h"

TEXT ·gemmMicro4x8SSE(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI
	MOVQ acc+24(FP), DX

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

loop:
	MOVUPS (DI), X8      // b0..b3
	MOVUPS 16(DI), X9    // b4..b7

	MOVSS  (SI), X12     // a0
	SHUFPS $0x00, X12, X12
	MOVAPS X8, X10
	MOVAPS X9, X11
	MULPS  X12, X10
	MULPS  X12, X11
	ADDPS  X10, X0
	ADDPS  X11, X1

	MOVSS  4(SI), X12    // a1
	SHUFPS $0x00, X12, X12
	MOVAPS X8, X10
	MOVAPS X9, X11
	MULPS  X12, X10
	MULPS  X12, X11
	ADDPS  X10, X2
	ADDPS  X11, X3

	MOVSS  8(SI), X12    // a2
	SHUFPS $0x00, X12, X12
	MOVAPS X8, X10
	MOVAPS X9, X11
	MULPS  X12, X10
	MULPS  X12, X11
	ADDPS  X10, X4
	ADDPS  X11, X5

	MOVSS  12(SI), X12   // a3
	SHUFPS $0x00, X12, X12
	MOVAPS X8, X10
	MOVAPS X9, X11
	MULPS  X12, X10
	MULPS  X12, X11
	ADDPS  X10, X6
	ADDPS  X11, X7

	ADDQ $16, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, 32(DX)
	MOVUPS X3, 48(DX)
	MOVUPS X4, 64(DX)
	MOVUPS X5, 80(DX)
	MOVUPS X6, 96(DX)
	MOVUPS X7, 112(DX)
	RET

// AVX2+FMA micro-kernel: a 6×16 register tile accumulated over kc packed
// steps.
//
//   acc[r*16+s] = Σ_p pa[p*6+r] · pb[p*16+s]
//
// The 6×16 tile lives in Y0–Y11 (two 8-lane vectors per row). Each step
// loads one 16-wide B slice (Y12, Y13), broadcasts the 6 A values in
// turn (Y14) and issues VFMADD231PS — one rounding per step, exactly the
// semantics of the math.FMA Go reference (gemmMicroGoFMARef).
//
// func gemmMicroAVX2(kc int, pa, pb *float32, acc *[256]float32)
TEXT ·gemmMicroAVX2(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI
	MOVQ acc+24(FP), DX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

avx2loop:
	VMOVUPS (DI), Y12        // b0..b7
	VMOVUPS 32(DI), Y13      // b8..b15

	VBROADCASTSS (SI), Y14   // a0
	VFMADD231PS  Y12, Y14, Y0
	VFMADD231PS  Y13, Y14, Y1

	VBROADCASTSS 4(SI), Y14  // a1
	VFMADD231PS  Y12, Y14, Y2
	VFMADD231PS  Y13, Y14, Y3

	VBROADCASTSS 8(SI), Y14  // a2
	VFMADD231PS  Y12, Y14, Y4
	VFMADD231PS  Y13, Y14, Y5

	VBROADCASTSS 12(SI), Y14 // a3
	VFMADD231PS  Y12, Y14, Y6
	VFMADD231PS  Y13, Y14, Y7

	VBROADCASTSS 16(SI), Y14 // a4
	VFMADD231PS  Y12, Y14, Y8
	VFMADD231PS  Y13, Y14, Y9

	VBROADCASTSS 20(SI), Y14 // a5
	VFMADD231PS  Y12, Y14, Y10
	VFMADD231PS  Y13, Y14, Y11

	ADDQ $24, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  avx2loop

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	VMOVUPS Y8, 256(DX)
	VMOVUPS Y9, 288(DX)
	VMOVUPS Y10, 320(DX)
	VMOVUPS Y11, 352(DX)
	VZEROUPPER
	RET

// AVX-512F micro-kernel: an 8×32 register tile accumulated over kc
// packed steps.
//
//   acc[r*32+s] = Σ_p pa[p*8+r] · pb[p*32+s]
//
// The 8×32 tile lives in Z0–Z15 (two 16-lane vectors per row); Z16/Z17
// hold the current 32-wide B slice and Z18 the broadcast A value. Same
// FMA rounding family as the AVX2 kernel and the math.FMA reference.
// The zeroing and the k loop are macros shared with the fused-store
// variant below, so both accumulate every tile identically.

#define AVX512_ZERO_TILE \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7; \
	VPXORQ Z8, Z8, Z8; \
	VPXORQ Z9, Z9, Z9; \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	VPXORQ Z15, Z15, Z15

// One k step: B slice b0..b31 into Z16/Z17, then per row r the
// broadcast a_r (Z18) fused into the row's two accumulators.
#define AVX512_STEP \
	VMOVUPS (DI), Z16; \
	VMOVUPS 64(DI), Z17; \
	VBROADCASTSS (SI), Z18; \
	VFMADD231PS Z16, Z18, Z0; \
	VFMADD231PS Z17, Z18, Z1; \
	VBROADCASTSS 4(SI), Z18; \
	VFMADD231PS Z16, Z18, Z2; \
	VFMADD231PS Z17, Z18, Z3; \
	VBROADCASTSS 8(SI), Z18; \
	VFMADD231PS Z16, Z18, Z4; \
	VFMADD231PS Z17, Z18, Z5; \
	VBROADCASTSS 12(SI), Z18; \
	VFMADD231PS Z16, Z18, Z6; \
	VFMADD231PS Z17, Z18, Z7; \
	VBROADCASTSS 16(SI), Z18; \
	VFMADD231PS Z16, Z18, Z8; \
	VFMADD231PS Z17, Z18, Z9; \
	VBROADCASTSS 20(SI), Z18; \
	VFMADD231PS Z16, Z18, Z10; \
	VFMADD231PS Z17, Z18, Z11; \
	VBROADCASTSS 24(SI), Z18; \
	VFMADD231PS Z16, Z18, Z12; \
	VFMADD231PS Z17, Z18, Z13; \
	VBROADCASTSS 28(SI), Z18; \
	VFMADD231PS Z16, Z18, Z14; \
	VFMADD231PS Z17, Z18, Z15; \
	ADDQ $32, SI; \
	ADDQ $128, DI

// func gemmMicroAVX512(kc int, pa, pb *float32, acc *[256]float32)
TEXT ·gemmMicroAVX512(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI
	MOVQ acc+24(FP), DX

	AVX512_ZERO_TILE

avx512loop:
	AVX512_STEP
	DECQ CX
	JNZ  avx512loop

	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, 128(DX)
	VMOVUPS Z3, 192(DX)
	VMOVUPS Z4, 256(DX)
	VMOVUPS Z5, 320(DX)
	VMOVUPS Z6, 384(DX)
	VMOVUPS Z7, 448(DX)
	VMOVUPS Z8, 512(DX)
	VMOVUPS Z9, 576(DX)
	VMOVUPS Z10, 640(DX)
	VMOVUPS Z11, 704(DX)
	VMOVUPS Z12, 768(DX)
	VMOVUPS Z13, 832(DX)
	VMOVUPS Z14, 896(DX)
	VMOVUPS Z15, 960(DX)
	VZEROUPPER
	RET

// Fused-store variant: the same 8×32 accumulation, then the tile is
// finished in C in registers instead of being written to acc. Row r's
// columns [0, split) live at R12 + r·ldc and columns [split, 32) at
// R13 + r·ldc, where R13 is c1 rebased by −4·split so that tile column
// s sits at byte 4·s from either base. K1/K2 select the first segment's
// lanes of the low/high 16-column half, K3/K4 the second segment's; a
// one-segment tile has split = 32, so K3 = K4 = 0 and the R13 accesses
// are fully masked (AVX-512 suppresses faults on masked-off lanes).
//
// Per element, in storeTile's order:
//   combine: flags&tileScale: v = (C·beta) + acc; flags&tileAccum:
//            v = C + acc; neither: v = acc. C (or C·beta) is the first
//            operand of each op, as in the compiled Go code, so even the
//            NaN a two-NaN operation returns is the same.
//   bias:    v = v + bias[r] (flags&tileBias)
//   act:     v < 0 (ordered, so NaN and −0 are not scaled) → v·slope
//            (flags&tileAct)
//
// func gemmMicroAVX512Store(kc int, pa, pb, c0, c1 *float32, ldc, split, flags int, beta, slope float32, bias *float32)

#define LOAD_C_ROW(lo, hi) \
	VMOVUPS.Z (R8), K1, lo; \
	VMOVUPS (R9), K3, lo; \
	VMOVUPS.Z 64(R8), K2, hi; \
	VMOVUPS 64(R9), K4, hi

#define ACCUM_ROW(lo, hi) \
	LOAD_C_ROW(Z22, Z23); \
	VADDPS lo, Z22, lo; \
	VADDPS hi, Z23, hi; \
	ADDQ R10, R8; \
	ADDQ R10, R9

#define SCALE_ROW(lo, hi) \
	LOAD_C_ROW(Z22, Z23); \
	VMULPS Z19, Z22, Z22; \
	VMULPS Z19, Z23, Z23; \
	VADDPS lo, Z22, lo; \
	VADDPS hi, Z23, hi; \
	ADDQ R10, R8; \
	ADDQ R10, R9

#define BIAS_ROW(off, lo, hi) \
	VBROADCASTSS off(BX), Z24; \
	VADDPS Z24, lo, lo; \
	VADDPS Z24, hi, hi

#define ACT(z) \
	VCMPPS $0x11, Z21, z, K5; \
	VMULPS Z20, z, K5, z

#define STORE_ROW(lo, hi) \
	VMOVUPS lo, K1, (R8); \
	VMOVUPS lo, K3, (R9); \
	VMOVUPS hi, K2, 64(R8); \
	VMOVUPS hi, K4, 64(R9); \
	ADDQ R10, R8; \
	ADDQ R10, R9

TEXT ·gemmMicroAVX512Store(SB), NOSPLIT, $0-80
	MOVQ kc+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI

	AVX512_ZERO_TILE

avx512sloop:
	AVX512_STEP
	DECQ CX
	JNZ  avx512sloop

	MOVQ c0+24(FP), R12
	MOVQ c1+32(FP), R13
	MOVQ ldc+40(FP), R10
	MOVQ split+48(FP), CX
	MOVQ flags+56(FP), AX
	MOVQ CX, DX
	SHLQ $2, DX
	SUBQ DX, R13
	MOVQ $1, DX
	SHLQ CX, DX
	DECQ DX              // (1 << split) − 1: the first segment's columns
	KMOVW DX, K1
	SHRQ $16, DX
	KMOVW DX, K2
	KNOTW K1, K3
	KNOTW K2, K4

	MOVQ R12, R8
	MOVQ R13, R9
	TESTQ $1, AX         // tileScale
	JNZ  scale
	TESTQ $2, AX         // tileAccum
	JZ   bias
	ACCUM_ROW(Z0, Z1)
	ACCUM_ROW(Z2, Z3)
	ACCUM_ROW(Z4, Z5)
	ACCUM_ROW(Z6, Z7)
	ACCUM_ROW(Z8, Z9)
	ACCUM_ROW(Z10, Z11)
	ACCUM_ROW(Z12, Z13)
	ACCUM_ROW(Z14, Z15)
	JMP  bias

scale:
	VBROADCASTSS beta+64(FP), Z19
	SCALE_ROW(Z0, Z1)
	SCALE_ROW(Z2, Z3)
	SCALE_ROW(Z4, Z5)
	SCALE_ROW(Z6, Z7)
	SCALE_ROW(Z8, Z9)
	SCALE_ROW(Z10, Z11)
	SCALE_ROW(Z12, Z13)
	SCALE_ROW(Z14, Z15)

bias:
	TESTQ $4, AX         // tileBias
	JZ   act
	MOVQ bias+72(FP), BX
	BIAS_ROW(0, Z0, Z1)
	BIAS_ROW(4, Z2, Z3)
	BIAS_ROW(8, Z4, Z5)
	BIAS_ROW(12, Z6, Z7)
	BIAS_ROW(16, Z8, Z9)
	BIAS_ROW(20, Z10, Z11)
	BIAS_ROW(24, Z12, Z13)
	BIAS_ROW(28, Z14, Z15)

act:
	TESTQ $8, AX         // tileAct
	JZ   store
	VBROADCASTSS slope+68(FP), Z20
	VPXORQ Z21, Z21, Z21
	ACT(Z0)
	ACT(Z1)
	ACT(Z2)
	ACT(Z3)
	ACT(Z4)
	ACT(Z5)
	ACT(Z6)
	ACT(Z7)
	ACT(Z8)
	ACT(Z9)
	ACT(Z10)
	ACT(Z11)
	ACT(Z12)
	ACT(Z13)
	ACT(Z14)
	ACT(Z15)

store:
	MOVQ R12, R8
	MOVQ R13, R9
	STORE_ROW(Z0, Z1)
	STORE_ROW(Z2, Z3)
	STORE_ROW(Z4, Z5)
	STORE_ROW(Z6, Z7)
	STORE_ROW(Z8, Z9)
	STORE_ROW(Z10, Z11)
	STORE_ROW(Z12, Z13)
	STORE_ROW(Z14, Z15)
	VZEROUPPER
	RET
