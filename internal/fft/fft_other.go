//go:build !amd64

package fft

// useAVX and useAVX512 are false off amd64: every pass is its Go loop, a
// tile runs through the line path, and the twins below are never called.
var useAVX, useAVX512 = false, false

func radix4AVX(x []complex128, tw []twiddlePair)    { panic("fft: no AVX on this GOARCH") }
func radix4DIFAVX(x []complex128, tw []twiddlePair) { panic("fft: no AVX on this GOARCH") }
func firstPass4AVX(x []complex128)                  { panic("fft: no AVX on this GOARCH") }
func firstPass8AVX(x []complex128)                  { panic("fft: no AVX on this GOARCH") }
func lastPass4AVX(x []complex128, s float64)        { panic("fft: no AVX on this GOARCH") }
func lastPass8AVX(x []complex128, s float64)        { panic("fft: no AVX on this GOARCH") }

func tileFirst4AVX(t, src []complex128, from []int32)         { panic("fft: no AVX on this GOARCH") }
func tileFirst8AVX(t, src []complex128, from []int32)         { panic("fft: no AVX on this GOARCH") }
func tileLast4AVX(t, dst []complex128, to []int32, s float64) { panic("fft: no AVX on this GOARCH") }
func tileLast8AVX(t, dst []complex128, to []int32, s float64) { panic("fft: no AVX on this GOARCH") }
func tileRadix4AVX(t []complex128, tw []tileTwiddle)          { panic("fft: no AVX on this GOARCH") }
func tileRadix4DIFAVX(t []complex128, tw []tileTwiddle)       { panic("fft: no AVX on this GOARCH") }

func scaleTileAVX(t []complex128, s *[2 * Tile]float64, r []float64) {
	panic("fft: no AVX on this GOARCH")
}

func tileFirst4AVX512(t, src []complex128, from []int32) { panic("fft: no AVX-512 on this GOARCH") }
func tileFirst8AVX512(t, src []complex128, from []int32) { panic("fft: no AVX-512 on this GOARCH") }

func tileLast4AVX512(t, dst []complex128, to []int32, s float64) {
	panic("fft: no AVX-512 on this GOARCH")
}

func tileLast8AVX512(t, dst []complex128, to []int32, s float64) {
	panic("fft: no AVX-512 on this GOARCH")
}

func tileRadix4AVX512(t []complex128, tw []tileTwiddle) {
	panic("fft: no AVX-512 on this GOARCH")
}

func tileRadix4DIFAVX512(t []complex128, tw []tileTwiddle) {
	panic("fft: no AVX-512 on this GOARCH")
}
