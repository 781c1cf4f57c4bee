package fft

// useAVX routes every pass of dit and dif to its AVX twin in fft_amd64.s.
// It is set once, here, from CPUID: the CPU has AVX and the OS saves the YMM
// registers. Only tests change it, to run the Go loops on a machine that
// has AVX.
var useAVX = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuidECX1(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xcr0()&6 == 6 // the OS saves the XMM and YMM state
}

// cpuidECX1 returns ECX of CPUID leaf 1, the feature bits.
func cpuidECX1() uint32

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

// scaleRealAVX is ScaleReal's loop on an even number of points, bit for
// bit; r holds 2·len(x) factors.
//
//go:noescape
func scaleRealAVX(x []complex128, s float64, r []float64)
