#include "textflag.h"

// AVX-512 twins of the tile transforms' passes (tile.go). A tile row — the
// Tile = 4 pencils' values at one position — is one ZMM register, so each
// pass is its line loop's arithmetic on whole rows: the first and last
// passes run firstPass's and lastPass's blocks with a row where the line
// loop has a point, and the radix-4 passes radix4's and radix4DIF's
// butterflies with each twiddle broadcast to the row. The rule is
// fft_amd64.s's: the Go loop's operations in its order, no FMA, negation by
// the sign bit. The one difference is the complex product: AVX-512 has no
// VADDSUBPD, so w·v is v·wr plus (vi, vr)·(−wi, wi). IEEE 754 defines
// a − b as a + (−b) and rounds x·(−y) to −(x·y), so the bits are those of
// vr·wr − vi·wi and vi·wr + vr·wi all the same.

// tileNegImag and tileNegReal flip the sign of a complex's imaginary or
// real half, broadcast to every complex of a row.
DATA tileNegImag<>+0(SB)/8, $0x0000000000000000
DATA tileNegImag<>+8(SB)/8, $0x8000000000000000
GLOBL tileNegImag<>(SB), RODATA|NOPTR, $16

DATA tileNegReal<>+0(SB)/8, $0x8000000000000000
DATA tileNegReal<>+8(SB)/8, $0x0000000000000000
GLOBL tileNegReal<>(SB), RODATA|NOPTR, $16

// tileSqrtHalf is math.Sqrt2 / 2.
DATA tileSqrtHalf<>+0(SB)/8, $0x3fe6a09e667f3bcd
GLOBL tileSqrtHalf<>(SB), RODATA|NOPTR, $8

// tileZero is the row the first pass reads for an absent input row: +0
// everywhere, as a cleared line holds.
DATA tileZero<>+0(SB)/8, $0
DATA tileZero<>+8(SB)/8, $0
DATA tileZero<>+16(SB)/8, $0
DATA tileZero<>+24(SB)/8, $0
DATA tileZero<>+32(SB)/8, $0
DATA tileZero<>+40(SB)/8, $0
DATA tileZero<>+48(SB)/8, $0
DATA tileZero<>+56(SB)/8, $0
GLOBL tileZero<>(SB), RODATA|NOPTR, $64

// TILECONST loads the sign masks into Z31 (imaginary) and Z30 (real) and
// √2/2 into Z29.
#define TILECONST \
	VBROADCASTF32X4 tileNegImag<>(SB), Z31; \
	VBROADCASTF32X4 tileNegReal<>(SB), Z30; \
	VBROADCASTSD    tileSqrtHalf<>(SB), Z29

// NEGIZ sets v = −i·v in every complex of the row.
#define NEGIZ(v) \
	VPERMILPD $0x55, v, v; \
	VXORPD    Z31, v, v

// LDROW loads row m of the block whose row offsets R9 points at into z:
// src (SI) + 16·from[m], or tileZero (R12) where from[m] < 0.
#define LDROW(m, z) \
	MOVLQSX (4*m)(R9), AX;  \
	SHLQ    $4, AX;         \
	LEAQ    (SI)(AX*1), AX; \
	CMOVQMI R12, AX;        \
	VMOVUPD (AX), z

// STROW stores z as output row m of the block at DI: to dst (SI) +
// 16·to[m], the offsets at R9, or back to the row's own place in the tile
// where to[m] < 0.
#define STROW(z, m) \
	MOVLQSX (4*m)(R9), AX;  \
	SHLQ    $4, AX;         \
	LEAQ    (SI)(AX*1), AX; \
	LEAQ    (64*m)(DI), BX; \
	CMOVQMI BX, AX;         \
	VMOVUPD z, (AX)

// DFT4Z is dft4 on rows Z0..Z3 (a0..a3), leaving y0..y3 in Z0..Z3; it
// uses Z8..Z11.
#define DFT4Z \
	VADDPD Z1, Z0, Z8;  \
	VSUBPD Z1, Z0, Z9;  \
	VADDPD Z3, Z2, Z10; \
	VSUBPD Z3, Z2, Z11; \
	NEGIZ(Z11);         \
	VADDPD Z10, Z8, Z0; \
	VADDPD Z11, Z9, Z1; \
	VSUBPD Z10, Z8, Z2; \
	VSUBPD Z11, Z9, Z3

// DFT8Z is firstPass's size-8 block on rows Z0..Z7 (a0..a7): b0..b7 in
// Z8..Z15, c0..c7 in Z16..Z23; W₈·c5 from (re+im, im−re) and W₈³·c7 from
// (im−re, −(re+im)), both times √2/2; then c0+c4 … c3+c7 in Z0..Z3 and
// c0−c4 … c3−c7 in Z4..Z7. It uses Z24 and Z25.
#define DFT8Z \
	VADDPD    Z1, Z0, Z8;    \
	VSUBPD    Z1, Z0, Z9;    \
	VADDPD    Z3, Z2, Z10;   \
	VSUBPD    Z3, Z2, Z11;   \
	NEGIZ(Z11);              \
	VADDPD    Z5, Z4, Z12;   \
	VSUBPD    Z5, Z4, Z13;   \
	VADDPD    Z7, Z6, Z14;   \
	VSUBPD    Z7, Z6, Z15;   \
	NEGIZ(Z15);              \
	VADDPD    Z10, Z8, Z16;  \
	VADDPD    Z11, Z9, Z17;  \
	VSUBPD    Z10, Z8, Z18;  \
	VSUBPD    Z11, Z9, Z19;  \
	VADDPD    Z14, Z12, Z20; \
	VADDPD    Z15, Z13, Z21; \
	VSUBPD    Z14, Z12, Z22; \
	NEGIZ(Z22);              \
	VSUBPD    Z15, Z13, Z23; \
	VPERMILPD $0x55, Z21, Z24; \
	VXORPD    Z31, Z24, Z24; \
	VADDPD    Z24, Z21, Z21; \
	VMULPD    Z29, Z21, Z21; \
	VPERMILPD $0x55, Z23, Z24; \
	VXORPD    Z30, Z23, Z25; \
	VADDPD    Z25, Z24, Z24; \
	VXORPD    Z31, Z24, Z24; \
	VMULPD    Z29, Z24, Z23; \
	VADDPD    Z20, Z16, Z0;  \
	VADDPD    Z21, Z17, Z1;  \
	VADDPD    Z22, Z18, Z2;  \
	VADDPD    Z23, Z19, Z3;  \
	VSUBPD    Z20, Z16, Z4;  \
	VSUBPD    Z21, Z17, Z5;  \
	VSUBPD    Z22, Z18, Z6;  \
	VSUBPD    Z23, Z19, Z7

// SCALE4Z and SCALE8Z multiply rows Z0..Z3 or Z0..Z7 by s, broadcast in
// Z28: lastPass's scaled.
#define SCALE4Z \
	VMULPD Z28, Z0, Z0; \
	VMULPD Z28, Z1, Z1; \
	VMULPD Z28, Z2, Z2; \
	VMULPD Z28, Z3, Z3

#define SCALE8Z \
	SCALE4Z;            \
	VMULPD Z28, Z4, Z4; \
	VMULPD Z28, Z5, Z5; \
	VMULPD Z28, Z6, Z6; \
	VMULPD Z28, Z7, Z7

// ZMUL sets p = w·v for every complex of row v, w being the twiddle at
// byte offset off of the tileTwiddle at R10: p = v·wr (broadcast) plus
// (vi, vr)·(−wi, wi). s and w are scratch; p may be v.
#define ZMUL(off, v, p, s, w) \
	VPERMILPD       $0x55, v, s;       \
	VBROADCASTF32X4 (off+16)(R10), w;  \
	VMULPD          w, s, s;           \
	VMULPD.BCST     off(R10), v, p;    \
	VADDPD          s, p, p

// func tileFirst4AVX512(t, src []complex128, from []int32)
TEXT ·tileFirst4AVX512(SB), NOSPLIT, $0-72
	MOVQ t_base+0(FP), DI
	MOVQ t_len+8(FP), R8
	SHLQ $4, R8
	ADDQ DI, R8
	MOVQ src_base+24(FP), SI
	MOVQ from_base+48(FP), R9
	LEAQ tileZero<>(SB), R12
	TILECONST

tfirst4:
	LDROW(0, Z0)
	LDROW(1, Z1)
	LDROW(2, Z2)
	LDROW(3, Z3)
	DFT4Z
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $16, R9
	CMPQ    DI, R8
	JB      tfirst4
	VZEROUPPER
	RET

// func tileFirst8AVX512(t, src []complex128, from []int32)
TEXT ·tileFirst8AVX512(SB), NOSPLIT, $0-72
	MOVQ t_base+0(FP), DI
	MOVQ t_len+8(FP), R8
	SHLQ $4, R8
	ADDQ DI, R8
	MOVQ src_base+24(FP), SI
	MOVQ from_base+48(FP), R9
	LEAQ tileZero<>(SB), R12
	TILECONST

tfirst8:
	LDROW(0, Z0)
	LDROW(1, Z1)
	LDROW(2, Z2)
	LDROW(3, Z3)
	LDROW(4, Z4)
	LDROW(5, Z5)
	LDROW(6, Z6)
	LDROW(7, Z7)
	DFT8Z
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ    $512, DI
	ADDQ    $32, R9
	CMPQ    DI, R8
	JB      tfirst8
	VZEROUPPER
	RET

// func tileLast4AVX512(t, dst []complex128, to []int32, s float64)
//
// lastPass's radix-4 block: a0..a3 are rows 0, 2, 3, 1, and y0..y3 go to
// rows 0, 2, 1, 3.
TEXT ·tileLast4AVX512(SB), NOSPLIT, $0-80
	MOVQ         t_base+0(FP), DI
	MOVQ         t_len+8(FP), R8
	SHLQ         $4, R8
	ADDQ         DI, R8
	MOVQ         dst_base+24(FP), SI
	MOVQ         to_base+48(FP), R9
	VBROADCASTSD s+72(FP), Z28
	TILECONST

tlast4:
	VMOVUPD (DI), Z0
	VMOVUPD 128(DI), Z1
	VMOVUPD 192(DI), Z2
	VMOVUPD 64(DI), Z3
	SCALE4Z
	DFT4Z
	STROW(Z0, 0)
	STROW(Z1, 2)
	STROW(Z2, 1)
	STROW(Z3, 3)
	ADDQ $256, DI
	ADDQ $16, R9
	CMPQ DI, R8
	JB   tlast4
	VZEROUPPER
	RET

// func tileLast8AVX512(t, dst []complex128, to []int32, s float64)
//
// lastPass's radix-8 block: a0..a7 are rows 0, 4, 6, 2, 7, 3, 5, 1, and
// y0..y7 go to rows 0, 4, 2, 6, 1, 5, 3, 7.
TEXT ·tileLast8AVX512(SB), NOSPLIT, $0-80
	MOVQ         t_base+0(FP), DI
	MOVQ         t_len+8(FP), R8
	SHLQ         $4, R8
	ADDQ         DI, R8
	MOVQ         dst_base+24(FP), SI
	MOVQ         to_base+48(FP), R9
	VBROADCASTSD s+72(FP), Z28
	TILECONST

tlast8:
	VMOVUPD (DI), Z0
	VMOVUPD 256(DI), Z1
	VMOVUPD 384(DI), Z2
	VMOVUPD 128(DI), Z3
	VMOVUPD 448(DI), Z4
	VMOVUPD 192(DI), Z5
	VMOVUPD 320(DI), Z6
	VMOVUPD 64(DI), Z7
	SCALE8Z
	DFT8Z
	STROW(Z0, 0)
	STROW(Z1, 4)
	STROW(Z2, 2)
	STROW(Z3, 6)
	STROW(Z4, 1)
	STROW(Z5, 5)
	STROW(Z6, 3)
	STROW(Z7, 7)
	ADDQ $512, DI
	ADDQ $32, R9
	CMPQ DI, R8
	JB   tlast8
	VZEROUPPER
	RET

// func tileRadix4AVX512(t []complex128, tw []tileTwiddle)
//
// DI walks the blocks of 4q rows and AX the first quarter of one, BX is a
// quarter in bytes (q·64), R13 three quarters, R8 the end of t, R11 the end
// of the current first quarter and R10 butterfly j's tileTwiddle.
TEXT ·tileRadix4AVX512(SB), NOSPLIT, $0-48
	MOVQ            t_base+0(FP), DI
	MOVQ            t_len+8(FP), R8
	SHLQ            $4, R8
	ADDQ            DI, R8
	MOVQ            tw_len+32(FP), BX
	SHLQ            $6, BX
	LEAQ            (BX)(BX*2), R13
	VBROADCASTF32X4 tileNegImag<>(SB), Z31

tblock:
	MOVQ DI, AX
	LEAQ (DI)(BX*1), R11
	MOVQ tw_base+24(FP), R10

tloop:
	VMOVUPD (AX), Z0
	VMOVUPD (AX)(BX*1), Z1
	VMOVUPD (AX)(BX*2), Z2
	VMOVUPD (AX)(R13*1), Z3

	ZMUL(32, Z1, Z1, Z8, Z9)    // t1 = w2·x1
	ZMUL(0, Z2, Z2, Z10, Z11)   // t2 = w1·x2
	ZMUL(64, Z3, Z3, Z12, Z13)  // t3 = w3·x3

	VADDPD Z1, Z0, Z4 // c0 = x0 + t1
	VSUBPD Z1, Z0, Z5 // c1 = x0 − t1
	VADDPD Z3, Z2, Z6 // c2 = t2 + t3
	VSUBPD Z3, Z2, Z7 // c3 = −i·(t2 − t3)
	NEGIZ(Z7)

	VADDPD  Z6, Z4, Z0
	VSUBPD  Z6, Z4, Z2
	VADDPD  Z7, Z5, Z1
	VSUBPD  Z7, Z5, Z3
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, (AX)(BX*1)
	VMOVUPD Z2, (AX)(BX*2)
	VMOVUPD Z3, (AX)(R13*1)

	ADDQ $64, AX
	ADDQ $96, R10
	CMPQ AX, R11
	JB   tloop

	LEAQ (DI)(BX*4), DI
	CMPQ DI, R8
	JB   tblock
	VZEROUPPER
	RET

// func tileRadix4DIFAVX512(t []complex128, tw []tileTwiddle)
//
// Registers as in tileRadix4AVX512.
TEXT ·tileRadix4DIFAVX512(SB), NOSPLIT, $0-48
	MOVQ            t_base+0(FP), DI
	MOVQ            t_len+8(FP), R8
	SHLQ            $4, R8
	ADDQ            DI, R8
	MOVQ            tw_len+32(FP), BX
	SHLQ            $6, BX
	LEAQ            (BX)(BX*2), R13
	VBROADCASTF32X4 tileNegImag<>(SB), Z31

tdifBlock:
	MOVQ DI, AX
	LEAQ (DI)(BX*1), R11
	MOVQ tw_base+24(FP), R10

tdifLoop:
	VMOVUPD (AX), Z0
	VMOVUPD (AX)(BX*1), Z1
	VMOVUPD (AX)(BX*2), Z2
	VMOVUPD (AX)(R13*1), Z3

	VADDPD Z2, Z0, Z4 // s02
	VSUBPD Z2, Z0, Z5 // d02
	VADDPD Z3, Z1, Z6 // s13
	VSUBPD Z3, Z1, Z7 // d13 = −i·(x1 − x3)
	NEGIZ(Z7)

	VADDPD Z6, Z4, Z0 // x0 = s02 + s13
	VSUBPD Z6, Z4, Z4 // s02 − s13
	VSUBPD Z7, Z5, Z6 // d02 − d13
	VADDPD Z7, Z5, Z5 // d02 + d13

	ZMUL(32, Z4, Z1, Z8, Z9)    // x1 = w2·(s02 − s13)
	ZMUL(0, Z6, Z2, Z10, Z11)   // x2 = w1·(d02 − d13)
	ZMUL(64, Z5, Z3, Z12, Z13)  // x3 = w3·(d02 + d13)

	VMOVUPD Z0, (AX)
	VMOVUPD Z1, (AX)(BX*1)
	VMOVUPD Z2, (AX)(BX*2)
	VMOVUPD Z3, (AX)(R13*1)

	ADDQ $64, AX
	ADDQ $96, R10
	CMPQ AX, R11
	JB   tdifLoop

	LEAQ (DI)(BX*4), DI
	CMPQ DI, R8
	JB   tdifBlock
	VZEROUPPER
	RET

// func scaleTileAVX512(t []complex128, s *[2 * Tile]float64, r []float64)
//
// One tile row per register: the row's factor r[i] broadcast times the
// pencils' factors s, then the row times that, as ScaleTile computes
// real(v)·(s[j]·r[i]).
TEXT ·scaleTileAVX512(SB), NOSPLIT, $0-56
	MOVQ    t_base+0(FP), DI
	MOVQ    s+24(FP), AX
	MOVQ    r_base+32(FP), SI
	MOVQ    r_len+40(FP), CX
	VMOVUPD (AX), Z0
	TESTQ   CX, CX
	JZ      zscaleDone

zscaleRow:
	VMULPD.BCST (SI), Z0, Z1
	VMOVUPD     (DI), Z2
	VMULPD      Z1, Z2, Z2
	VMOVUPD     Z2, (DI)
	ADDQ        $64, DI
	ADDQ        $8, SI
	DECQ        CX
	JNZ         zscaleRow

zscaleDone:
	VZEROUPPER
	RET
