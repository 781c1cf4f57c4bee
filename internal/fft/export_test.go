package fft

// NoAVX512 runs f with every tile on the AVX twin where it would run on the
// AVX-512 one, for the benchmarks of the external test package
// (localrun_test.go).
func NoAVX512(f func()) { noAVX512(f) }
