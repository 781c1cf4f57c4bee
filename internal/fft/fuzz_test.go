package fft

import (
	"math"
	"math/cmplx"
	"testing"
)

// FuzzFFTRoundTrip asserts Inverse(Forward(x)) ≈ x for arbitrary lengths —
// the radix-4 kernels for powers of two and the Bluestein chirp-z path for
// everything else (including primes) — with inputs built from fuzzed bytes,
// out of place, in place, and as ForwardFromPerm → InverseToPerm on input
// placed through Perm and read back through it: all three must agree bit
// for bit. Where the AVX passes run, Forward and Inverse must also equal
// the Go loops' bit for bit. The transform length is the fuzzed int mod
// 512, plus one.
func FuzzFFTRoundTrip(f *testing.F) {
	f.Add(8, []byte{1, 2, 3, 4})          // n = 9
	f.Add(7, []byte{0xff, 0x00, 0x7f})    // n = 8: radix-4, one register pass
	f.Add(13, []byte{9, 9, 9, 9, 9, 9})   // n = 14
	f.Add(1, []byte{42})                  // n = 2
	f.Add(12, []byte{5, 4, 3, 2, 1, 0})   // n = 13: Bluestein prime
	f.Add(64, []byte{})                   // n = 65, zero input
	f.Add(31, []byte{128, 64, 32, 16, 8}) // n = 32: radix-4, odd log₂ n
	f.Add(100, []byte{1, 1, 2, 3, 5, 8, 13})

	f.Fuzz(func(t *testing.T, n int, data []byte) {
		// Clamp to sane plan sizes; the transform is O(n log n) but the
		// fuzzer shouldn't burn time on megapoint plans.
		if n < 1 {
			n = -n
		}
		n = n%512 + 1
		plan, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		x := make([]complex128, n)
		for i := range x {
			var re, im byte
			if len(data) > 0 {
				re = data[(2*i)%len(data)]
				im = data[(2*i+1)%len(data)]
			}
			x[i] = complex(float64(re)-128, float64(im)-128)
		}
		spec := make([]complex128, n)
		if err := plan.Forward(spec, x); err != nil {
			t.Fatalf("Forward(n=%d): %v", n, err)
		}
		back := make([]complex128, n)
		if err := plan.Inverse(back, spec); err != nil {
			t.Fatalf("Inverse(n=%d): %v", n, err)
		}
		if useAVX {
			goSpec, goBack := make([]complex128, n), make([]complex128, n)
			goLoops(func() {
				if err := plan.Forward(goSpec, x); err != nil {
					t.Fatalf("Go-loop Forward(n=%d): %v", n, err)
				}
				if err := plan.Inverse(goBack, spec); err != nil {
					t.Fatalf("Go-loop Inverse(n=%d): %v", n, err)
				}
			})
			if i := firstBitDiff(spec, goSpec); i >= 0 {
				t.Fatalf("n=%d: Forward [%d] = %v, Go loops %v", n, i, spec[i], goSpec[i])
			}
			if i := firstBitDiff(back, goBack); i >= 0 {
				t.Fatalf("n=%d: Inverse [%d] = %v, Go loops %v", n, i, back[i], goBack[i])
			}
		}
		inPlace := append([]complex128(nil), x...)
		if err := plan.Forward(inPlace, inPlace); err != nil {
			t.Fatalf("in-place Forward(n=%d): %v", n, err)
		}
		if i := firstDiff(inPlace, spec); i >= 0 {
			t.Fatalf("n=%d: in-place Forward [%d] = %v, out-of-place %v", n, i, inPlace[i], spec[i])
		}
		if err := plan.Inverse(inPlace, inPlace); err != nil {
			t.Fatalf("in-place Inverse(n=%d): %v", n, err)
		}
		if i := firstDiff(inPlace, back); i >= 0 {
			t.Fatalf("n=%d: in-place Inverse [%d] = %v, out-of-place %v", n, i, inPlace[i], back[i])
		}
		perm := plan.Perm()
		line := make([]complex128, n)
		for i, j := range perm {
			line[i] = x[j]
		}
		if err := plan.ForwardFromPerm(line); err != nil {
			t.Fatalf("ForwardFromPerm(n=%d): %v", n, err)
		}
		if i := firstDiff(line, spec); i >= 0 {
			t.Fatalf("n=%d: ForwardFromPerm [%d] = %v, Forward %v", n, i, line[i], spec[i])
		}
		if err := plan.InverseToPerm(line); err != nil {
			t.Fatalf("InverseToPerm(n=%d): %v", n, err)
		}
		for i, j := range perm {
			if line[j] != back[i] {
				t.Fatalf("n=%d: InverseToPerm element %d = %v, Inverse %v", n, i, line[j], back[i])
			}
		}
		// Relative tolerance scaled by input magnitude and n: Bluestein
		// round-trips through a larger padded transform, so allow a few
		// ULP-per-log factors beyond machine epsilon.
		maxIn := 0.0
		for _, v := range x {
			if a := cmplx.Abs(v); a > maxIn {
				maxIn = a
			}
		}
		tol := 1e-9 * (maxIn + 1) * float64(n)
		for i := range x {
			if d := cmplx.Abs(back[i] - x[i]); d > tol || math.IsNaN(d) {
				t.Fatalf("n=%d: round-trip error %g at %d (tol %g): %v vs %v",
					n, d, i, tol, back[i], x[i])
			}
		}
	})
}

// FuzzScaleReal holds scaleRealAVX to ScaleReal's Go loop bit for bit on
// fuzzed lines: each two bytes of data are one point's parts and each byte
// of rs one part's factor (cycled), all read through scaleEdges and a set
// of ordinary values; sBits are the bits of s, a NaN taken as 1.
func FuzzScaleReal(f *testing.F) {
	f.Add(math.Float64bits(0), []byte{1, 2, 3, 4}, []byte{9, 9})
	f.Add(math.Float64bits(math.Copysign(0, -1)), []byte{7, 8, 0, 0, 5, 6, 12, 255}, []byte{7, 8, 0})
	f.Add(math.Float64bits(1), []byte{}, []byte{3})
	f.Add(math.Float64bits(-2.5e-3), []byte("a line of seventeen or more points, odd tail"), []byte("factors"))
	f.Add(math.Float64bits(1e300), []byte{5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7}, []byte{5, 6, 7, 8, 9, 10, 11, 12})

	f.Fuzz(func(t *testing.T, sBits uint64, data, rs []byte) {
		if !useAVX {
			t.Skip("no AVX kernel on this CPU")
		}
		s := math.Float64frombits(sBits)
		if math.IsNaN(s) {
			s = 1
		}
		value := func(b byte) float64 {
			if int(b) < len(scaleEdges) {
				return scaleEdges[b]
			}
			return (float64(b) - 128) / 8
		}
		n := len(data) / 2
		x := make([]complex128, n)
		r := make([]float64, 2*n)
		for i := range x {
			x[i] = complex(value(data[2*i]), value(data[2*i+1]))
		}
		if len(rs) > 0 {
			for j := range r {
				r[j] = value(rs[j%len(rs)])
			}
		}
		got, want := make([]complex128, n), make([]complex128, n)
		if i := scaleRealCase(got, want, x, s, r); i >= 0 {
			t.Fatalf("n=%d s=%v: [%d] = %v, Go loop %v", n, s, i, got[i], want[i])
		}
	})
}
