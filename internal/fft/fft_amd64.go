package fft

// useAVX routes every pass of dit and dif, the tile transforms and
// ScaleTile to their AVX twins in fft_amd64.s. It is set once, here, from
// CPUID: the CPU has AVX and the OS saves the YMM registers. Only tests
// change it, to run the Go loops on a machine that has AVX.
var useAVX = hasAVX()

// useAVX512 routes the tile transforms of power-of-two plans and ScaleTile
// to their AVX-512 twins in tile_amd64.s, where they otherwise run as their
// AVX twins in fft_amd64.s: the CPU also has AVX-512 F and DQ, and the OS saves
// the opmask and ZMM registers. Only tests change it, to run the AVX twins
// on a machine that has AVX-512.
var useAVX512 = useAVX && hasAVX512()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xcr0()&6 == 6 // the OS saves the XMM and YMM state
}

// hasAVX512 is called once AVX and its OS support are known.
func hasAVX512() bool {
	const f, dq = 1 << 16, 1 << 17
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&f == 0 || ebx&dq == 0 {
		return false
	}
	return xcr0()&0xe6 == 0xe6 // and the opmask, upper ZMM and ZMM16–31 state
}

// cpuid returns the registers of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xcr0 returns the low half of extended control register 0 (XGETBV).
func xcr0() uint32

// radix4AVX is radix4 on every block of 4q = 8·len(tw) points of x, bit for
// bit, tw holding the pass's q twiddle triples as twiddlePairs.
//
//go:noescape
func radix4AVX(x []complex128, tw []twiddlePair)

// radix4DIFAVX is radix4DIF on every block of 8·len(tw) points of x, bit
// for bit.
//
//go:noescape
func radix4DIFAVX(x []complex128, tw []twiddlePair)

// firstPass4AVX and firstPass8AVX are firstPass at radix 4 and 8, and
// lastPass4AVX and lastPass8AVX lastPass, on an even number of blocks.
//
//go:noescape
func firstPass4AVX(x []complex128)

//go:noescape
func firstPass8AVX(x []complex128)

//go:noescape
func lastPass4AVX(x []complex128, s float64)

//go:noescape
func lastPass8AVX(x []complex128, s float64)

// scaleTileAVX is ScaleTile's loop, bit for bit; s holds each pencil's
// factor twice, r one factor per row of t.
//
//go:noescape
func scaleTileAVX(t []complex128, s *[2 * Tile]float64, r []float64)

// tileFirst4AVX, tileFirst8AVX, tileLast4AVX, tileLast8AVX, tileRadix4AVX
// and tileRadix4DIFAVX are the AVX-512 twins below on AVX: each pass runs
// on one half of every row, two complex128 per YMM register, and then on
// the other.
//
//go:noescape
func tileFirst4AVX(t, src []complex128, from []int32)

//go:noescape
func tileFirst8AVX(t, src []complex128, from []int32)

//go:noescape
func tileLast4AVX(t, dst []complex128, to []int32, s float64)

//go:noescape
func tileLast8AVX(t, dst []complex128, to []int32, s float64)

//go:noescape
func tileRadix4AVX(t []complex128, tw []tileTwiddle)

//go:noescape
func tileRadix4DIFAVX(t []complex128, tw []tileTwiddle)

// scaleTileAVX512 is ScaleTile's loop, bit for bit, a whole row per
// register; s and r are as scaleTileAVX takes them.
//
//go:noescape
func scaleTileAVX512(t []complex128, s *[2 * Tile]float64, r []float64)

// tileFirst4AVX512 and tileFirst8AVX512 are firstPass at radix 4 and 8 on
// every row of the tile t, each row read from src through from (an absent
// row is zero); tileLast4AVX512 and tileLast8AVX512 are lastPass on t,
// scaling by s, each output row stored to dst through to or, where to has
// none, back into t.
//
//go:noescape
func tileFirst4AVX512(t, src []complex128, from []int32)

//go:noescape
func tileFirst8AVX512(t, src []complex128, from []int32)

//go:noescape
func tileLast4AVX512(t, dst []complex128, to []int32, s float64)

//go:noescape
func tileLast8AVX512(t, dst []complex128, to []int32, s float64)

// tileRadix4AVX512 is radix4 and tileRadix4DIFAVX512 radix4DIF on every
// block of 4·len(tw) rows of the tile t, a whole row per register with each
// butterfly's twiddles broadcast to it.
//
//go:noescape
func tileRadix4AVX512(t []complex128, tw []tileTwiddle)

//go:noescape
func tileRadix4DIFAVX512(t []complex128, tw []tileTwiddle)
