#include "textflag.h"

// maxPool2x2AVX512 pools one plane with the 2×2/stride-2 window: output
// row oy reads input rows 2·oy (R10) and 2·oy+1 (R11). A step takes 32
// input floats of each row, splits them into the even (kx = 0) and odd
// (kx = 1) lanes with VPERMT2PS (Z29, Z30 hold laneSelect), and folds
// the four taps into best (Z6), which starts at −1e30 (Z31), in
// maxPoolPlanes' (ky, kx) order. VMAXPS best, tap, best returns tap
// only when tap > best — the Go loop's `if v > best`. A row's last
// ow mod 16 outputs are one step under masks: K1/K2 select the input
// lanes, K3 the outputs; masked-off lanes are never read or written.
//
// func maxPool2x2AVX512(dst, src *float32, oh, ow, w int, in, out uint32)

#define POOL_STEP \
	VMOVAPS   Z0, Z4; \
	VPERMT2PS Z1, Z29, Z4; \
	VPERMT2PS Z1, Z30, Z0; \
	VMOVAPS   Z2, Z5; \
	VPERMT2PS Z3, Z29, Z5; \
	VPERMT2PS Z3, Z30, Z2; \
	VMAXPS    Z31, Z4, Z6; \
	VMAXPS    Z6, Z0, Z6; \
	VMAXPS    Z6, Z5, Z6; \
	VMAXPS    Z6, Z2, Z6

TEXT ·maxPool2x2AVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ oh+16(FP), DX
	MOVQ ow+24(FP), BX
	MOVQ w+32(FP), R8
	SHLQ $2, R8           // input row stride in bytes
	MOVL in+40(FP), AX
	KMOVW AX, K1
	SHRL $16, AX
	KMOVW AX, K2
	MOVL out+44(FP), AX
	KMOVW AX, K3
	MOVQ BX, R12
	ANDQ $15, R12
	SHLQ $2, R12          // bytes of a row's masked outputs
	SHRQ $4, BX           // full steps per row
	MOVL $0xF149F2CA, AX  // float32(−1e30)
	VPBROADCASTD AX, Z31
	VMOVDQU32 ·laneSelect(SB), Z29
	VMOVDQU32 ·laneSelect+64(SB), Z30

poolrow:
	MOVQ SI, R10
	LEAQ (SI)(R8*1), R11
	MOVQ BX, CX
	TESTQ CX, CX
	JZ   pooltail

poolstep:
	VMOVUPS (R10), Z0
	VMOVUPS 64(R10), Z1
	VMOVUPS (R11), Z2
	VMOVUPS 64(R11), Z3
	POOL_STEP
	VMOVUPS Z6, (DI)
	ADDQ $128, R10
	ADDQ $128, R11
	ADDQ $64, DI
	DECQ CX
	JNZ  poolstep

pooltail:
	TESTQ R12, R12
	JZ   poolnext
	VMOVUPS.Z (R10), K1, Z0
	VMOVUPS.Z 64(R10), K2, Z1
	VMOVUPS.Z (R11), K1, Z2
	VMOVUPS.Z 64(R11), K2, Z3
	POOL_STEP
	VMOVUPS Z6, K3, (DI)
	ADDQ R12, DI

poolnext:
	LEAQ (SI)(R8*2), SI
	DECQ DX
	JNZ  poolrow
	VZEROUPPER
	RET

// addRunsAVX512 adds rows runs of n floats: dst[r·ds+e] += src[r·ss+e].
// Each step loads 16 destination floats and adds the source to them,
// VADDPS src, dst, dst: the destination is the first operand, as in the
// compiled `dd[e] += ss[e]`, so a two-NaN add returns the destination's
// NaN there too. A run's last n mod 16 floats are one step under the
// tail mask K1.
//
// func addRunsAVX512(dst, src *float32, rows, n, ds, ss int, tail uint32)
TEXT ·addRunsAVX512(SB), NOSPLIT, $0-52
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ n+24(FP), BX
	MOVQ ds+32(FP), R8
	SHLQ $2, R8
	MOVQ ss+40(FP), R9
	SHLQ $2, R9
	MOVL tail+48(FP), AX
	KMOVW AX, K1
	SHRQ $4, BX           // full steps per run

addrow:
	MOVQ DI, R10
	MOVQ SI, R11
	MOVQ BX, CX
	TESTQ CX, CX
	JZ   addtail

addstep:
	VMOVUPS (R10), Z0
	VADDPS  (R11), Z0, Z0
	VMOVUPS Z0, (R10)
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ CX
	JNZ  addstep

addtail:
	KORTESTW K1, K1
	JZ   addnext
	VMOVUPS.Z (R10), K1, Z0
	VMOVUPS.Z (R11), K1, Z1
	VADDPS  Z1, Z0, Z0
	VMOVUPS Z0, K1, (R10)

addnext:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ DX
	JNZ  addrow
	VZEROUPPER
	RET
