#include "textflag.h"

// AVX twins of the power-of-two kernel's passes, of the tile transforms'
// passes and of ScaleTile. Each does its Go loop's operations in the Go
// loop's order on two complex128 per YMM register, and nothing else: no FMA, negation by flipping the sign bit as Go does, and
// each complex product w·v as re = vr·wr − vi·wi, im = vi·wr + vr·wi (Go
// computes wr·vr − wi·vi and wr·vi + wi·vr; IEEE multiplication and
// addition are commutative). So every output bit is the Go loop's.

// NEGI sets v = −i·v: the halves of each complex swapped, the new
// imaginary part negated with the sign mask in Y15.
#define NEGI(v) \
	VPERMILPD $5, v, v; \
	VXORPD    Y15, v, v

// negImag flips the sign of the imaginary half of each complex128.
DATA negImag<>+0(SB)/8, $0x0000000000000000
DATA negImag<>+8(SB)/8, $0x8000000000000000
DATA negImag<>+16(SB)/8, $0x0000000000000000
DATA negImag<>+24(SB)/8, $0x8000000000000000
GLOBL negImag<>(SB), RODATA|NOPTR, $32

// sqrtHalf is math.Sqrt2 / 2.
DATA sqrtHalf<>+0(SB)/8, $0x3fe6a09e667f3bcd
GLOBL sqrtHalf<>(SB), RODATA|NOPTR, $8

// The radix-4 passes: butterflies j and j+1 of one block per register.

// CMULT sets p = w·v for butterflies j and j+1, w being the twiddle at byte
// offset off of their twiddlePair at R10: its real parts (wr, wr) in one
// 256-bit load, its imaginary parts in the next. s is scratch; p may be v.
#define CMULT(off, v, p, s) \
	VPERMILPD $5, v, s;            \
	VMULPD    off(R10), v, p;      \
	VMULPD    (off+32)(R10), s, s; \
	VADDSUBPD s, p, p

// PASS sets up the loop over the blocks of x shared by both passes: DI
// walks the blocks and AX the first quarter of one, BX is a quarter in
// bytes (q·16 = len(tw)·32), R13 three quarters, R8 the end of x, R11 the
// end of the current first quarter and R10 the twiddlePair of j and j+1.
#define PASS \
	MOVQ    x_base+0(FP), DI;  \
	MOVQ    x_len+8(FP), R8;   \
	SHLQ    $4, R8;            \
	ADDQ    DI, R8;            \
	MOVQ    tw_len+32(FP), BX; \
	SHLQ    $5, BX;            \
	LEAQ    (BX)(BX*2), R13;   \
	VMOVUPD negImag<>(SB), Y15

// func radix4AVX(x []complex128, tw []twiddlePair)
TEXT ·radix4AVX(SB), NOSPLIT, $0-48
	PASS

block:
	MOVQ DI, AX
	LEAQ (DI)(BX*1), R11
	MOVQ tw_base+24(FP), R10

loop:
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(BX*1), Y1
	VMOVUPD (AX)(BX*2), Y2
	VMOVUPD (AX)(R13*1), Y3

	CMULT(64, Y1, Y1, Y5)   // t1 = w2·x1
	CMULT(0, Y2, Y2, Y8)    // t2 = w1·x2
	CMULT(128, Y3, Y3, Y11) // t3 = w3·x3

	VADDPD Y1, Y0, Y4 // c0 = x0 + t1
	VSUBPD Y1, Y0, Y5 // c1 = x0 − t1
	VADDPD Y3, Y2, Y6 // c2 = t2 + t3
	VSUBPD Y3, Y2, Y7 // c3 = −i·(t2 − t3)
	NEGI(Y7)

	VADDPD  Y6, Y4, Y0
	VSUBPD  Y6, Y4, Y2
	VADDPD  Y7, Y5, Y1
	VSUBPD  Y7, Y5, Y3
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(BX*1)
	VMOVUPD Y2, (AX)(BX*2)
	VMOVUPD Y3, (AX)(R13*1)

	ADDQ $32, AX
	ADDQ $192, R10
	CMPQ AX, R11
	JB   loop

	LEAQ (DI)(BX*4), DI
	CMPQ DI, R8
	JB   block
	VZEROUPPER
	RET

// func radix4DIFAVX(x []complex128, tw []twiddlePair)
TEXT ·radix4DIFAVX(SB), NOSPLIT, $0-48
	PASS

difBlock:
	MOVQ DI, AX
	LEAQ (DI)(BX*1), R11
	MOVQ tw_base+24(FP), R10

difLoop:
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(BX*1), Y1
	VMOVUPD (AX)(BX*2), Y2
	VMOVUPD (AX)(R13*1), Y3

	VADDPD Y2, Y0, Y4 // s02
	VSUBPD Y2, Y0, Y5 // d02
	VADDPD Y3, Y1, Y6 // s13
	VSUBPD Y3, Y1, Y7 // d13 = −i·(x1 − x3)
	NEGI(Y7)

	VADDPD Y6, Y4, Y0 // x0 = s02 + s13
	VSUBPD Y6, Y4, Y4 // s02 − s13
	VSUBPD Y7, Y5, Y6 // d02 − d13
	VADDPD Y7, Y5, Y5 // d02 + d13

	CMULT(64, Y4, Y1, Y9)   // x1 = w2·(s02 − s13)
	CMULT(0, Y6, Y2, Y12)   // x2 = w1·(d02 − d13)
	CMULT(128, Y5, Y3, Y10) // x3 = w3·(d02 + d13)

	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(BX*1)
	VMOVUPD Y2, (AX)(BX*2)
	VMOVUPD Y3, (AX)(R13*1)

	ADDQ $32, AX
	ADDQ $192, R10
	CMPQ AX, R11
	JB   difLoop

	LEAQ (DI)(BX*4), DI
	CMPQ DI, R8
	JB   difBlock
	VZEROUPPER
	RET

// The first and last passes: two blocks per register, the low half of each
// YMM holding a point of one block and the high half the same point of the
// next, so the arithmetic is firstPass's line for line.

// LD loads point off (bytes) of the block at DI into x, y's low half, and
// the same point of the block stride bytes on into y's high half.
#define LD(off, stride, x, y) \
	VMOVUPD     off(DI), x; \
	VINSERTF128 $1, (off+stride)(DI), y, y

// ST stores y's halves where LD loaded them.
#define ST(y, x, off, stride) \
	VMOVUPD      x, off(DI); \
	VEXTRACTF128 $1, y, (off+stride)(DI)

// SCALE4 and SCALE8 multiply Y0..Y3 or Y0..Y7 by s, broadcast in Y13:
// lastPass's scaled.
#define SCALE4 \
	VMULPD Y13, Y0, Y0; \
	VMULPD Y13, Y1, Y1; \
	VMULPD Y13, Y2, Y2; \
	VMULPD Y13, Y3, Y3

#define SCALE8 \
	SCALE4;             \
	VMULPD Y13, Y4, Y4; \
	VMULPD Y13, Y5, Y5; \
	VMULPD Y13, Y6, Y6; \
	VMULPD Y13, Y7, Y7

// DFT4 is dft4 on Y0..Y3 (a0..a3), leaving y0..y3 in Y8..Y11; it uses
// Y4..Y7.
#define DFT4 \
	VADDPD Y1, Y0, Y4;  \
	VSUBPD Y1, Y0, Y5;  \
	VADDPD Y3, Y2, Y6;  \
	VSUBPD Y3, Y2, Y7;  \
	NEGI(Y7);           \
	VADDPD Y6, Y4, Y8;  \
	VADDPD Y7, Y5, Y9;  \
	VSUBPD Y6, Y4, Y10; \
	VSUBPD Y7, Y5, Y11

// DFT8 is firstPass's size-8 block on Y0..Y7 (a0..a7), with √2/2 in Y14.
// In order: b0 b1 b2 b3 in Y8..Y11, b4 b5 b6 b7 in Y12 Y13 Y0 Y1; c0 c2 c1
// c3 c4 c6 c5 c7 in Y2..Y9; W₈·c5 from (re+im, im−re) and W₈³·c7 from
// (im−re, −(re+im)); then c0±c4, c1±c5, c2±c6, c3±c7, the sums in Y0..Y3
// and the differences in Y10..Y13.
#define DFT8 \
	VADDPD    Y1, Y0, Y8;    \
	VSUBPD    Y1, Y0, Y9;    \
	VADDPD    Y3, Y2, Y10;   \
	VSUBPD    Y3, Y2, Y11;   \
	NEGI(Y11);               \
	VADDPD    Y5, Y4, Y12;   \
	VSUBPD    Y5, Y4, Y13;   \
	VADDPD    Y7, Y6, Y0;    \
	VSUBPD    Y7, Y6, Y1;    \
	NEGI(Y1);                \
	VADDPD    Y10, Y8, Y2;   \
	VSUBPD    Y10, Y8, Y3;   \
	VADDPD    Y11, Y9, Y4;   \
	VSUBPD    Y11, Y9, Y5;   \
	VADDPD    Y0, Y12, Y6;   \
	VSUBPD    Y0, Y12, Y7;   \
	NEGI(Y7);                \
	VADDPD    Y1, Y13, Y8;   \
	VSUBPD    Y1, Y13, Y9;   \
	VPERMILPD $5, Y8, Y10;   \
	VXORPD    Y15, Y10, Y10; \
	VADDPD    Y10, Y8, Y8;   \
	VMULPD    Y14, Y8, Y8;   \
	VPERMILPD $5, Y9, Y10;   \
	VADDSUBPD Y9, Y10, Y10;  \
	VXORPD    Y15, Y10, Y10; \
	VMULPD    Y14, Y10, Y9;  \
	VADDPD    Y6, Y2, Y0;    \
	VSUBPD    Y6, Y2, Y10;   \
	VADDPD    Y8, Y4, Y1;    \
	VSUBPD    Y8, Y4, Y11;   \
	VADDPD    Y7, Y3, Y2;    \
	VSUBPD    Y7, Y3, Y12;   \
	VADDPD    Y9, Y5, Y3;    \
	VSUBPD    Y9, Y5, Y13

// BLOCKS sets DI to x and R8 to its end, and loads the constants.
#define BLOCKS \
	MOVQ         x_base+0(FP), DI;   \
	MOVQ         x_len+8(FP), R8;    \
	SHLQ         $4, R8;             \
	ADDQ         DI, R8;             \
	VMOVUPD      negImag<>(SB), Y15; \
	VBROADCASTSD sqrtHalf<>(SB), Y14

// func firstPass4AVX(x []complex128)
TEXT ·firstPass4AVX(SB), NOSPLIT, $0-24
	BLOCKS

first4:
	LD(0, 64, X0, Y0)
	LD(16, 64, X1, Y1)
	LD(32, 64, X2, Y2)
	LD(48, 64, X3, Y3)
	DFT4
	ST(Y8, X8, 0, 64)
	ST(Y9, X9, 16, 64)
	ST(Y10, X10, 32, 64)
	ST(Y11, X11, 48, 64)
	ADDQ $128, DI
	CMPQ DI, R8
	JB   first4
	VZEROUPPER
	RET

// func firstPass8AVX(x []complex128)
TEXT ·firstPass8AVX(SB), NOSPLIT, $0-24
	BLOCKS

first8:
	LD(0, 128, X0, Y0)
	LD(16, 128, X1, Y1)
	LD(32, 128, X2, Y2)
	LD(48, 128, X3, Y3)
	LD(64, 128, X4, Y4)
	LD(80, 128, X5, Y5)
	LD(96, 128, X6, Y6)
	LD(112, 128, X7, Y7)
	DFT8
	ST(Y0, X0, 0, 128)
	ST(Y1, X1, 16, 128)
	ST(Y2, X2, 32, 128)
	ST(Y3, X3, 48, 128)
	ST(Y10, X10, 64, 128)
	ST(Y11, X11, 80, 128)
	ST(Y12, X12, 96, 128)
	ST(Y13, X13, 112, 128)
	ADDQ $256, DI
	CMPQ DI, R8
	JB   first8
	VZEROUPPER
	RET

// func lastPass4AVX(x []complex128, s float64)
TEXT ·lastPass4AVX(SB), NOSPLIT, $0-32
	BLOCKS

last4:
	VBROADCASTSD s+24(FP), Y13
	LD(0, 64, X0, Y0)
	LD(32, 64, X1, Y1)
	LD(48, 64, X2, Y2)
	LD(16, 64, X3, Y3)
	SCALE4
	DFT4
	ST(Y8, X8, 0, 64)
	ST(Y9, X9, 32, 64)
	ST(Y10, X10, 16, 64)
	ST(Y11, X11, 48, 64)
	ADDQ $128, DI
	CMPQ DI, R8
	JB   last4
	VZEROUPPER
	RET

// func lastPass8AVX(x []complex128, s float64)
TEXT ·lastPass8AVX(SB), NOSPLIT, $0-32
	BLOCKS

last8:
	VBROADCASTSD s+24(FP), Y13
	LD(0, 128, X0, Y0)
	LD(64, 128, X1, Y1)
	LD(96, 128, X2, Y2)
	LD(32, 128, X3, Y3)
	LD(112, 128, X4, Y4)
	LD(48, 128, X5, Y5)
	LD(80, 128, X6, Y6)
	LD(16, 128, X7, Y7)
	SCALE8
	DFT8
	ST(Y0, X0, 0, 128)
	ST(Y1, X1, 64, 128)
	ST(Y2, X2, 32, 128)
	ST(Y3, X3, 96, 128)
	ST(Y10, X10, 16, 128)
	ST(Y11, X11, 80, 128)
	ST(Y12, X12, 48, 128)
	ST(Y13, X13, 112, 128)
	ADDQ $256, DI
	CMPQ DI, R8
	JB   last8
	VZEROUPPER
	RET

// func scaleTileAVX(t []complex128, s *[2 * Tile]float64, r []float64)
//
// One tile row per step, two pencils per register: the row's factor
// r[i] broadcast, times the pencils' factors s (each twice, as the parts
// lie in t), then the points times that, as ScaleTile computes
// real(v)·(s[j]·r[i]).
TEXT ·scaleTileAVX(SB), NOSPLIT, $0-56
	MOVQ    t_base+0(FP), DI
	MOVQ    s+24(FP), AX
	MOVQ    r_base+32(FP), SI
	MOVQ    r_len+40(FP), CX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	TESTQ   CX, CX
	JZ      scaleDone

scaleRow:
	VBROADCASTSD (SI), Y2
	VMULPD       Y2, Y0, Y3
	VMULPD       Y2, Y1, Y4
	VMOVUPD      (DI), Y5
	VMOVUPD      32(DI), Y6
	VMULPD       Y3, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMOVUPD      Y5, (DI)
	VMOVUPD      Y6, 32(DI)
	ADDQ         $64, DI
	ADDQ         $8, SI
	DECQ         CX
	JNZ          scaleRow

scaleDone:
	VZEROUPPER
	RET

// The tile transforms' AVX twins (tile.go): each tile row, four complex128,
// is two YMM halves, and every pass runs on one half and then the other —
// the first and last passes firstPass's and lastPass's blocks with a half
// row where the line loop has two points (the DFT4 and DFT8 above), the
// radix-4 passes radix4's and radix4DIF's butterflies with each twiddle
// broadcast to the half.

// zeroRow is the row the first pass reads for an absent input row: +0
// everywhere, as a cleared line holds.
DATA zeroRow<>+0(SB)/8, $0
DATA zeroRow<>+8(SB)/8, $0
DATA zeroRow<>+16(SB)/8, $0
DATA zeroRow<>+24(SB)/8, $0
DATA zeroRow<>+32(SB)/8, $0
DATA zeroRow<>+40(SB)/8, $0
DATA zeroRow<>+48(SB)/8, $0
DATA zeroRow<>+56(SB)/8, $0
GLOBL zeroRow<>(SB), RODATA|NOPTR, $64

// LDHALF loads half CX (byte offset 0 or 32) of row m of the block whose
// row offsets R9 points at into y: from src (SI) + 16·from[m], or zeroRow
// (R12) where from[m] < 0.
#define LDHALF(m, y) \
	MOVLQSX (4*m)(R9), AX;  \
	SHLQ    $4, AX;         \
	LEAQ    (SI)(AX*1), AX; \
	CMOVQMI R12, AX;        \
	VMOVUPD (AX)(CX*1), y

// STHALF stores y as half CX of output row m of the block at DI: to dst
// (SI) + 16·to[m], the offsets at R9, or back to the row's own place in the
// tile where to[m] < 0.
#define STHALF(y, m) \
	MOVLQSX (4*m)(R9), AX;  \
	SHLQ    $4, AX;         \
	LEAQ    (SI)(AX*1), AX; \
	LEAQ    (64*m)(DI), BX; \
	CMOVQMI BX, AX;         \
	VMOVUPD y, (AX)(CX*1)

// TILEEND sets R8 to the end of the tile at DI, its length in R8.
#define TILEEND \
	SHLQ $4, R8; \
	ADDQ DI, R8

// func tileFirst4AVX(t, src []complex128, from []int32)
TEXT ·tileFirst4AVX(SB), NOSPLIT, $0-72
	MOVQ    t_base+0(FP), DI
	MOVQ    t_len+8(FP), R8
	TILEEND
	MOVQ    src_base+24(FP), SI
	MOVQ    from_base+48(FP), R9
	LEAQ    zeroRow<>(SB), R12
	VMOVUPD negImag<>(SB), Y15

yfirst4:
	XORQ CX, CX

yfirst4Half:
	LDHALF(0, Y0)
	LDHALF(1, Y1)
	LDHALF(2, Y2)
	LDHALF(3, Y3)
	DFT4
	VMOVUPD Y8, (DI)(CX*1)
	VMOVUPD Y9, 64(DI)(CX*1)
	VMOVUPD Y10, 128(DI)(CX*1)
	VMOVUPD Y11, 192(DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, $64
	JB      yfirst4Half
	ADDQ    $256, DI
	ADDQ    $16, R9
	CMPQ    DI, R8
	JB      yfirst4
	VZEROUPPER
	RET

// func tileFirst8AVX(t, src []complex128, from []int32)
TEXT ·tileFirst8AVX(SB), NOSPLIT, $0-72
	MOVQ         t_base+0(FP), DI
	MOVQ         t_len+8(FP), R8
	TILEEND
	MOVQ         src_base+24(FP), SI
	MOVQ         from_base+48(FP), R9
	LEAQ         zeroRow<>(SB), R12
	VMOVUPD      negImag<>(SB), Y15
	VBROADCASTSD sqrtHalf<>(SB), Y14

yfirst8:
	XORQ CX, CX

yfirst8Half:
	LDHALF(0, Y0)
	LDHALF(1, Y1)
	LDHALF(2, Y2)
	LDHALF(3, Y3)
	LDHALF(4, Y4)
	LDHALF(5, Y5)
	LDHALF(6, Y6)
	LDHALF(7, Y7)
	DFT8
	VMOVUPD Y0, (DI)(CX*1)
	VMOVUPD Y1, 64(DI)(CX*1)
	VMOVUPD Y2, 128(DI)(CX*1)
	VMOVUPD Y3, 192(DI)(CX*1)
	VMOVUPD Y10, 256(DI)(CX*1)
	VMOVUPD Y11, 320(DI)(CX*1)
	VMOVUPD Y12, 384(DI)(CX*1)
	VMOVUPD Y13, 448(DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, $64
	JB      yfirst8Half
	ADDQ    $512, DI
	ADDQ    $32, R9
	CMPQ    DI, R8
	JB      yfirst8
	VZEROUPPER
	RET

// func tileLast4AVX(t, dst []complex128, to []int32, s float64)
//
// lastPass's radix-4 block: a0..a3 are rows 0, 2, 3, 1, and y0..y3 go to
// rows 0, 2, 1, 3.
TEXT ·tileLast4AVX(SB), NOSPLIT, $0-80
	MOVQ    t_base+0(FP), DI
	MOVQ    t_len+8(FP), R8
	TILEEND
	MOVQ    dst_base+24(FP), SI
	MOVQ    to_base+48(FP), R9
	VMOVUPD negImag<>(SB), Y15

ylast4:
	XORQ CX, CX

ylast4Half:
	VBROADCASTSD s+72(FP), Y13
	VMOVUPD      (DI)(CX*1), Y0
	VMOVUPD      128(DI)(CX*1), Y1
	VMOVUPD      192(DI)(CX*1), Y2
	VMOVUPD      64(DI)(CX*1), Y3
	SCALE4
	DFT4
	STHALF(Y8, 0)
	STHALF(Y9, 2)
	STHALF(Y10, 1)
	STHALF(Y11, 3)
	ADDQ $32, CX
	CMPQ CX, $64
	JB   ylast4Half
	ADDQ $256, DI
	ADDQ $16, R9
	CMPQ DI, R8
	JB   ylast4
	VZEROUPPER
	RET

// func tileLast8AVX(t, dst []complex128, to []int32, s float64)
//
// lastPass's radix-8 block: a0..a7 are rows 0, 4, 6, 2, 7, 3, 5, 1, and
// y0..y7 go to rows 0, 4, 2, 6, 1, 5, 3, 7.
TEXT ·tileLast8AVX(SB), NOSPLIT, $0-80
	MOVQ         t_base+0(FP), DI
	MOVQ         t_len+8(FP), R8
	TILEEND
	MOVQ         dst_base+24(FP), SI
	MOVQ         to_base+48(FP), R9
	VMOVUPD      negImag<>(SB), Y15
	VBROADCASTSD sqrtHalf<>(SB), Y14

ylast8:
	XORQ CX, CX

ylast8Half:
	VBROADCASTSD s+72(FP), Y13
	VMOVUPD      (DI)(CX*1), Y0
	VMOVUPD      256(DI)(CX*1), Y1
	VMOVUPD      384(DI)(CX*1), Y2
	VMOVUPD      128(DI)(CX*1), Y3
	VMOVUPD      448(DI)(CX*1), Y4
	VMOVUPD      192(DI)(CX*1), Y5
	VMOVUPD      320(DI)(CX*1), Y6
	VMOVUPD      64(DI)(CX*1), Y7
	SCALE8
	DFT8
	STHALF(Y0, 0)
	STHALF(Y1, 4)
	STHALF(Y2, 2)
	STHALF(Y3, 6)
	STHALF(Y10, 1)
	STHALF(Y11, 5)
	STHALF(Y12, 3)
	STHALF(Y13, 7)
	ADDQ $32, CX
	CMPQ CX, $64
	JB   ylast8Half
	ADDQ $512, DI
	ADDQ $32, R9
	CMPQ DI, R8
	JB   ylast8
	VZEROUPPER
	RET

// TMUL sets p = w·v for both complexes of half row v, w being the twiddle
// at byte offset off of the tileTwiddle at R10, whose real part is at off
// and imaginary part at off+24: CMULT with wr and wi broadcast. s and w are
// scratch; p may be v.
#define TMUL(off, v, p, s, w) \
	VPERMILPD    $5, v, s;         \
	VBROADCASTSD off(R10), w;      \
	VMULPD       w, v, p;          \
	VBROADCASTSD (off+24)(R10), w; \
	VMULPD       w, s, s;          \
	VADDSUBPD    s, p, p

// RADIX4HALF is radix4's butterfly on half h (byte offset 0 or 32) of the
// rows at AX, AX+BX, AX+2BX and AX+R13.
#define RADIX4HALF(h) \
	VMOVUPD h(AX), Y0;             \
	VMOVUPD h(AX)(BX*1), Y1;       \
	VMOVUPD h(AX)(BX*2), Y2;       \
	VMOVUPD h(AX)(R13*1), Y3;      \
	TMUL(32, Y1, Y1, Y5, Y6);      \
	TMUL(0, Y2, Y2, Y8, Y9);       \
	TMUL(64, Y3, Y3, Y11, Y12);    \
	VADDPD  Y1, Y0, Y4;            \
	VSUBPD  Y1, Y0, Y5;            \
	VADDPD  Y3, Y2, Y6;            \
	VSUBPD  Y3, Y2, Y7;            \
	NEGI(Y7);                      \
	VADDPD  Y6, Y4, Y0;            \
	VSUBPD  Y6, Y4, Y2;            \
	VADDPD  Y7, Y5, Y1;            \
	VSUBPD  Y7, Y5, Y3;            \
	VMOVUPD Y0, h(AX);             \
	VMOVUPD Y1, h(AX)(BX*1);       \
	VMOVUPD Y2, h(AX)(BX*2);       \
	VMOVUPD Y3, h(AX)(R13*1)

// DIFHALF is radix4DIF's butterfly on half h of the same rows.
#define DIFHALF(h) \
	VMOVUPD h(AX), Y0;             \
	VMOVUPD h(AX)(BX*1), Y1;       \
	VMOVUPD h(AX)(BX*2), Y2;       \
	VMOVUPD h(AX)(R13*1), Y3;      \
	VADDPD  Y2, Y0, Y4;            \
	VSUBPD  Y2, Y0, Y5;            \
	VADDPD  Y3, Y1, Y6;            \
	VSUBPD  Y3, Y1, Y7;            \
	NEGI(Y7);                      \
	VADDPD  Y6, Y4, Y0;            \
	VSUBPD  Y6, Y4, Y4;            \
	VSUBPD  Y7, Y5, Y6;            \
	VADDPD  Y7, Y5, Y5;            \
	TMUL(32, Y4, Y1, Y9, Y8);      \
	TMUL(0, Y6, Y2, Y12, Y11);     \
	TMUL(64, Y5, Y3, Y10, Y13);    \
	VMOVUPD Y0, h(AX);             \
	VMOVUPD Y1, h(AX)(BX*1);       \
	VMOVUPD Y2, h(AX)(BX*2);       \
	VMOVUPD Y3, h(AX)(R13*1)

// func tileRadix4AVX(t []complex128, tw []tileTwiddle)
//
// DI walks the blocks of 4q rows and AX the first quarter of one, BX is a
// quarter in bytes (q·64), R13 three quarters, R8 the end of t, R11 the end
// of the current first quarter and R10 butterfly j's tileTwiddle.
TEXT ·tileRadix4AVX(SB), NOSPLIT, $0-48
	MOVQ    t_base+0(FP), DI
	MOVQ    t_len+8(FP), R8
	TILEEND
	MOVQ    tw_len+32(FP), BX
	SHLQ    $6, BX
	LEAQ    (BX)(BX*2), R13
	VMOVUPD negImag<>(SB), Y15

yblock:
	MOVQ DI, AX
	LEAQ (DI)(BX*1), R11
	MOVQ tw_base+24(FP), R10

yloop:
	RADIX4HALF(0)
	RADIX4HALF(32)
	ADDQ $64, AX
	ADDQ $96, R10
	CMPQ AX, R11
	JB   yloop

	LEAQ (DI)(BX*4), DI
	CMPQ DI, R8
	JB   yblock
	VZEROUPPER
	RET

// func tileRadix4DIFAVX(t []complex128, tw []tileTwiddle)
//
// Registers as in tileRadix4AVX.
TEXT ·tileRadix4DIFAVX(SB), NOSPLIT, $0-48
	MOVQ    t_base+0(FP), DI
	MOVQ    t_len+8(FP), R8
	TILEEND
	MOVQ    tw_len+32(FP), BX
	SHLQ    $6, BX
	LEAQ    (BX)(BX*2), R13
	VMOVUPD negImag<>(SB), Y15

ydifBlock:
	MOVQ DI, AX
	LEAQ (DI)(BX*1), R11
	MOVQ tw_base+24(FP), R10

ydifLoop:
	DIFHALF(0)
	DIFHALF(32)
	ADDQ $64, AX
	ADDQ $96, R10
	CMPQ AX, R11
	JB   ydifLoop

	LEAQ (DI)(BX*4), DI
	CMPQ DI, R8
	JB   ydifBlock
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
