//go:build !amd64

package fft

// useAVX is false off amd64: every pass is its Go loop, and the AVX twins
// below are never called.
var useAVX = false

func radix4AVX(x []complex128, tw []twiddlePair)          { panic("fft: no AVX on this GOARCH") }
func radix4DIFAVX(x []complex128, tw []twiddlePair)       { panic("fft: no AVX on this GOARCH") }
func firstPass4AVX(x []complex128)                        { panic("fft: no AVX on this GOARCH") }
func firstPass8AVX(x []complex128)                        { panic("fft: no AVX on this GOARCH") }
func lastPass4AVX(x []complex128, s float64)              { panic("fft: no AVX on this GOARCH") }
func lastPass8AVX(x []complex128, s float64)              { panic("fft: no AVX on this GOARCH") }
func scaleRealAVX(x []complex128, s float64, r []float64) { panic("fft: no AVX on this GOARCH") }
