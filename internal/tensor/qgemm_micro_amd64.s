#include "textflag.h"

// AVX-512 VNNI int8 micro-kernel: an 8×32 int32 register tile
// accumulated over kc4 4-deep k-groups.
//
//   acc[r*32+s] = Σ_g Σ_{j<4} pa[(g*8+r)*4+j] · pb[(g*32+s)*4+j]
//
// The tile lives in Z0–Z15 (two 16-dword vectors per row); Z16/Z17 hold
// the current 32-column B slice and Z18 the broadcast weight k-group.
// One VPDPBUSD per row-vector fuses the whole
// multiply-widen-pairwise-add-accumulate chain with exact int32
// arithmetic — same results as the portable exact reference on every
// input, saturation-free by construction. The zeroing and the k loop
// are macros shared with the fused-store variant below, so both
// accumulate every tile identically.

#define QVNNI_ZERO_TILE \
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

// One k-group: columns 0..15 and 16..31 into Z16/Z17, then per row r
// the broadcast weight dword (Z18, the signed operand) into the row's
// two accumulators.
#define QVNNI_STEP \
	VMOVDQU32 (DI), Z16; \
	VMOVDQU32 64(DI), Z17; \
	VPBROADCASTD (SI), Z18; \
	VPDPBUSD Z18, Z16, Z0; \
	VPDPBUSD Z18, Z17, Z1; \
	VPBROADCASTD 4(SI), Z18; \
	VPDPBUSD Z18, Z16, Z2; \
	VPDPBUSD Z18, Z17, Z3; \
	VPBROADCASTD 8(SI), Z18; \
	VPDPBUSD Z18, Z16, Z4; \
	VPDPBUSD Z18, Z17, Z5; \
	VPBROADCASTD 12(SI), Z18; \
	VPDPBUSD Z18, Z16, Z6; \
	VPDPBUSD Z18, Z17, Z7; \
	VPBROADCASTD 16(SI), Z18; \
	VPDPBUSD Z18, Z16, Z8; \
	VPDPBUSD Z18, Z17, Z9; \
	VPBROADCASTD 20(SI), Z18; \
	VPDPBUSD Z18, Z16, Z10; \
	VPDPBUSD Z18, Z17, Z11; \
	VPBROADCASTD 24(SI), Z18; \
	VPDPBUSD Z18, Z16, Z12; \
	VPDPBUSD Z18, Z17, Z13; \
	VPBROADCASTD 28(SI), Z18; \
	VPDPBUSD Z18, Z16, Z14; \
	VPDPBUSD Z18, Z17, Z15; \
	ADDQ $32, SI; \
	ADDQ $128, DI

// Writes the int32 tile Z0–Z15 to the 8×32 block at R11.
#define QVNNI_STORE_TILE \
	VMOVDQU32 Z0, (R11); \
	VMOVDQU32 Z1, 64(R11); \
	VMOVDQU32 Z2, 128(R11); \
	VMOVDQU32 Z3, 192(R11); \
	VMOVDQU32 Z4, 256(R11); \
	VMOVDQU32 Z5, 320(R11); \
	VMOVDQU32 Z6, 384(R11); \
	VMOVDQU32 Z7, 448(R11); \
	VMOVDQU32 Z8, 512(R11); \
	VMOVDQU32 Z9, 576(R11); \
	VMOVDQU32 Z10, 640(R11); \
	VMOVDQU32 Z11, 704(R11); \
	VMOVDQU32 Z12, 768(R11); \
	VMOVDQU32 Z13, 832(R11); \
	VMOVDQU32 Z14, 896(R11); \
	VMOVDQU32 Z15, 960(R11)

// func qgemmMicroVNNI(kc4 int, pa *int8, pb *uint8, acc *[256]int32)
TEXT ·qgemmMicroVNNI(SB), NOSPLIT, $0-32
	MOVQ kc4+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI
	MOVQ acc+24(FP), R11

	QVNNI_ZERO_TILE

qvnniloop:
	QVNNI_STEP
	DECQ CX
	JNZ  qvnniloop

	QVNNI_STORE_TILE
	VZEROUPPER
	RET

// Fused-store variant: the same 8×32 accumulation, then the tile is
// finished without a trip through a Go-side accumulator.
//
//   flags&qtileCarryIn:  v = carry + acc (the sums of earlier k-blocks;
//                        int32 adds are exact, so the order is free)
//   flags&qtileCarryOut: write v back to carry and return — a k-block
//                        that is not the conv's last
//   otherwise, per element in qstoreTile's order:
//     f = deq[r] · float32(v − corr[r])   VPSUBD, VCVTDQ2PS, VMULPS
//     f = f + bias[r]                     always; a nil bias is +0
//     f < 0 (ordered) → f · slope         flags&qtileAct
//   and row r of the float tile is stored at c + r·ldc.
//
// func qgemmMicroVNNIStore(kc4 int, pa *int8, pb *uint8, c *float32, ldc int, carry *int32, flags int, deq *float32, corr *int32, bias *float32, slope float32)

#define QVNNI_CARRY_IN \
	VPADDD (R11), Z0, Z0; \
	VPADDD 64(R11), Z1, Z1; \
	VPADDD 128(R11), Z2, Z2; \
	VPADDD 192(R11), Z3, Z3; \
	VPADDD 256(R11), Z4, Z4; \
	VPADDD 320(R11), Z5, Z5; \
	VPADDD 384(R11), Z6, Z6; \
	VPADDD 448(R11), Z7, Z7; \
	VPADDD 512(R11), Z8, Z8; \
	VPADDD 576(R11), Z9, Z9; \
	VPADDD 640(R11), Z10, Z10; \
	VPADDD 704(R11), Z11, Z11; \
	VPADDD 768(R11), Z12, Z12; \
	VPADDD 832(R11), Z13, Z13; \
	VPADDD 896(R11), Z14, Z14; \
	VPADDD 960(R11), Z15, Z15

#define QDEQ_ROW(off, lo, hi) \
	VPBROADCASTD off(R13), Z19; \
	VBROADCASTSS off(R12), Z20; \
	VBROADCASTSS off(BX), Z21; \
	VPSUBD Z19, lo, lo; \
	VPSUBD Z19, hi, hi; \
	VCVTDQ2PS lo, lo; \
	VCVTDQ2PS hi, hi; \
	VMULPS lo, Z20, lo; \
	VMULPS hi, Z20, hi; \
	VADDPS Z21, lo, lo; \
	VADDPS Z21, hi, hi

#define QACT(z) \
	VCMPPS $0x11, Z23, z, K1; \
	VMULPS Z22, z, K1, z

#define QSTORE_ROW(lo, hi) \
	VMOVUPS lo, (R8); \
	VMOVUPS hi, 64(R8); \
	ADDQ R10, R8

TEXT ·qgemmMicroVNNIStore(SB), NOSPLIT, $0-84
	MOVQ kc4+0(FP), CX
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DI

	QVNNI_ZERO_TILE

qvnnisloop:
	QVNNI_STEP
	DECQ CX
	JNZ  qvnnisloop

	MOVQ flags+48(FP), AX
	MOVQ carry+40(FP), R11
	TESTQ $1, AX         // qtileCarryIn
	JZ   qcarryout
	QVNNI_CARRY_IN

qcarryout:
	TESTQ $2, AX         // qtileCarryOut
	JZ   qdeq
	QVNNI_STORE_TILE
	VZEROUPPER
	RET

qdeq:
	MOVQ deq+56(FP), R12
	MOVQ corr+64(FP), R13
	MOVQ bias+72(FP), BX
	QDEQ_ROW(0, Z0, Z1)
	QDEQ_ROW(4, Z2, Z3)
	QDEQ_ROW(8, Z4, Z5)
	QDEQ_ROW(12, Z6, Z7)
	QDEQ_ROW(16, Z8, Z9)
	QDEQ_ROW(20, Z10, Z11)
	QDEQ_ROW(24, Z12, Z13)
	QDEQ_ROW(28, Z14, Z15)

	TESTQ $4, AX         // qtileAct
	JZ   qstore
	VBROADCASTSS slope+80(FP), Z22
	VPXORQ Z23, Z23, Z23
	QACT(Z0)
	QACT(Z1)
	QACT(Z2)
	QACT(Z3)
	QACT(Z4)
	QACT(Z5)
	QACT(Z6)
	QACT(Z7)
	QACT(Z8)
	QACT(Z9)
	QACT(Z10)
	QACT(Z11)
	QACT(Z12)
	QACT(Z13)
	QACT(Z14)
	QACT(Z15)

qstore:
	MOVQ c+24(FP), R8
	MOVQ ldc+32(FP), R10
	QSTORE_ROW(Z0, Z1)
	QSTORE_ROW(Z2, Z3)
	QSTORE_ROW(Z4, Z5)
	QSTORE_ROW(Z6, Z7)
	QSTORE_ROW(Z8, Z9)
	QSTORE_ROW(Z10, Z11)
	QSTORE_ROW(Z12, Z13)
	QSTORE_ROW(Z14, Z15)
	VZEROUPPER
	RET

// qinterleave4 writes dst[s*4+j] = rj[s] for s < n — the 4-deep k-group
// interleave of four source rows that the packed-B layout wants. The
// main loop transposes 16 columns per step with SSE2 byte/word unpacks
// (baseline on amd64, no feature probe needed); the scalar tail handles
// n%16. Sources must each hold n readable bytes, dst 4n writable bytes.
//
// func qinterleave4(dst *uint8, r0, r1, r2, r3 *uint8, n int)
TEXT ·qinterleave4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), R8
	MOVQ r2+24(FP), R9
	MOVQ r3+32(FP), R10
	MOVQ n+40(FP), CX

qil16:
	CMPQ CX, $16
	JLT  qiltail
	MOVOU (SI), X0
	MOVOU (R8), X1
	MOVOU (R9), X2
	MOVOU (R10), X3

	MOVO      X0, X4
	PUNPCKLBW X1, X4 // r0,r1 byte pairs, columns 0..7
	PUNPCKHBW X1, X0 // columns 8..15
	MOVO      X2, X5
	PUNPCKLBW X3, X5 // r2,r3 byte pairs, columns 0..7
	PUNPCKHBW X3, X2 // columns 8..15

	MOVO      X4, X6
	PUNPCKLWL X5, X6 // r0r1r2r3 dwords, columns 0..3
	PUNPCKHWL X5, X4 // columns 4..7
	MOVO      X0, X7
	PUNPCKLWL X2, X7 // columns 8..11
	PUNPCKHWL X2, X0 // columns 12..15

	MOVOU X6, (DI)
	MOVOU X4, 16(DI)
	MOVOU X7, 32(DI)
	MOVOU X0, 48(DI)

	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $64, DI
	SUBQ $16, CX
	JMP  qil16

qiltail:
	TESTQ CX, CX
	JZ    qildone

qiltailloop:
	MOVB (SI), AX
	MOVB AX, (DI)
	MOVB (R8), AX
	MOVB AX, 1(DI)
	MOVB (R9), AX
	MOVB AX, 2(DI)
	MOVB (R10), AX
	MOVB AX, 3(DI)
	INCQ SI
	INCQ R8
	INCQ R9
	INCQ R10
	ADDQ $4, DI
	DECQ CX
	JNZ  qiltailloop

qildone:
	RET

// qpackPanelAVX512 packs one 32-column B panel of the qvnni kernel
// straight from a quantized [c,h,w] image, for a panel whose columns
// are consecutive pixels of one output row (see qpackIm2colPanel). It
// writes kc4 = ⌈kc/4⌉ k-groups of 128 bytes: byte (g, s, j) holds
// k-row 4g+j of column s, the layout qgemmMicroVNNI reads.
//
// K-row p is tap t = (t0 + p) mod ntaps of channel ch0 + (t0 + p) /
// ntaps. Its 32 source bytes start at R8 + taps[t], where R8 walks
// from src + org by chStride per channel; the load is one masked byte
// move merged onto a zero-point broadcast (Z15), so masks[t] alone
// decides which columns read the image and which the padding. Masked-off
// lanes are never touched, so a tap in the padding needs no other
// bounds handling. Stride 1 loads 32 bytes; stride 2 loads 64 and keeps
// the even bytes with VPMOVWB (masks[t] then only sets even bits).
// K-tail rows past kc read as the zero point. Each group of four rows
// (Y0–Y3) is transposed into 32 dwords by two unpack rounds and a lane
// fix-up, as qinterleave4 does with SSE2.
//
// func qpackPanelAVX512(dst, src *uint8, org int, taps *int, masks *uint64, ntaps, t0, chStride, kc, stride int, zp4 uint32)

// Advance to the next tap: past the last one, wrap to tap 0 of the next
// channel.
#define QNEXT_TAP \
	XORL AX, AX; \
	INCQ R12; \
	CMPQ R12, R11; \
	CMOVQEQ R14, R12; \
	CMOVQEQ R13, AX; \
	ADDQ AX, R8

#define QROW1(Zr) \
	VMOVDQA64 Z15, Zr; \
	MOVQ (R9)(R12*8), AX; \
	KMOVQ (R10)(R12*8), K1; \
	VMOVDQU8 (R8)(AX*1), K1, Zr; \
	QNEXT_TAP

#define QROW2(Zr, Yr) \
	VMOVDQA64 Z15, Zr; \
	MOVQ (R9)(R12*8), AX; \
	KMOVQ (R10)(R12*8), K1; \
	VMOVDQU8 (R8)(AX*1), K1, Zr; \
	VPMOVWB Zr, Yr; \
	QNEXT_TAP

// Y0–Y3 hold rows 4g..4g+3 for columns 0..31. The byte then word
// unpacks leave dword columns (0–3 | 16–19) in Y8, (4–7 | 20–23) in Y9,
// (8–11 | 24–27) in Y10 and (12–15 | 28–31) in Y11; VPERM2I128 puts the
// 128-bit lanes back in column order.
#define QINTERLEAVE_STORE \
	VPUNPCKLBW Y1, Y0, Y4; \
	VPUNPCKHBW Y1, Y0, Y5; \
	VPUNPCKLBW Y3, Y2, Y6; \
	VPUNPCKHBW Y3, Y2, Y7; \
	VPUNPCKLWD Y6, Y4, Y8; \
	VPUNPCKHWD Y6, Y4, Y9; \
	VPUNPCKLWD Y7, Y5, Y10; \
	VPUNPCKHWD Y7, Y5, Y11; \
	VPERM2I128 $0x20, Y9, Y8, Y4; \
	VPERM2I128 $0x20, Y11, Y10, Y5; \
	VPERM2I128 $0x31, Y9, Y8, Y6; \
	VPERM2I128 $0x31, Y11, Y10, Y7; \
	VMOVDQU Y4, (DI); \
	VMOVDQU Y5, 32(DI); \
	VMOVDQU Y6, 64(DI); \
	VMOVDQU Y7, 96(DI); \
	ADDQ $128, DI

TEXT ·qpackPanelAVX512(SB), NOSPLIT, $0-84
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), R8
	ADDQ org+16(FP), R8
	MOVQ taps+24(FP), R9
	MOVQ masks+32(FP), R10
	MOVQ ntaps+40(FP), R11
	MOVQ t0+48(FP), R12
	MOVQ chStride+56(FP), R13
	MOVQ kc+64(FP), DX
	MOVQ stride+72(FP), CX
	MOVL zp4+80(FP), AX
	VPBROADCASTD AX, Z15
	XORQ R14, R14
	MOVQ DX, BX
	ANDQ $3, BX          // k-tail rows
	SHRQ $2, DX          // full 4-row groups
	CMPQ CX, $2
	JEQ  qps2

qps1:
	TESTQ DX, DX
	JZ   qps1tail
	QROW1(Z0)
	QROW1(Z1)
	QROW1(Z2)
	QROW1(Z3)
	QINTERLEAVE_STORE
	DECQ DX
	JMP  qps1

qps1tail:
	TESTQ BX, BX
	JZ   qpsdone
	VMOVDQA64 Z15, Z1
	VMOVDQA64 Z15, Z2
	VMOVDQA64 Z15, Z3
	QROW1(Z0)
	CMPQ BX, $1
	JEQ  qpstail
	QROW1(Z1)
	CMPQ BX, $2
	JEQ  qpstail
	QROW1(Z2)
	JMP  qpstail

qps2:
	TESTQ DX, DX
	JZ   qps2tail
	QROW2(Z0, Y0)
	QROW2(Z1, Y1)
	QROW2(Z2, Y2)
	QROW2(Z3, Y3)
	QINTERLEAVE_STORE
	DECQ DX
	JMP  qps2

qps2tail:
	TESTQ BX, BX
	JZ   qpsdone
	VMOVDQA64 Z15, Z1
	VMOVDQA64 Z15, Z2
	VMOVDQA64 Z15, Z3
	QROW2(Z0, Y0)
	CMPQ BX, $1
	JEQ  qpstail
	QROW2(Z1, Y1)
	CMPQ BX, $2
	JEQ  qpstail
	QROW2(Z2, Y2)

qpstail:
	QINTERLEAVE_STORE

qpsdone:
	VZEROUPPER
	RET
