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

// FuzzTile holds a tile's forward transform, its scale and its inverse to
// the per-line references bit for bit under every dispatch this CPU has
// (TestTileMatchesLines' and TestScaleTileMatchesGo's checks on fuzzed
// tiles). Each 2·Tile bytes of data are one row's parts, read through
// scaleEdges' finite values and a set of ordinary ones; the tile has
// between 1 and 256 rows, a power of two or not. Bit 0 of a byte of rs
// (cycled) drops a row from the forward's source and bit 1 from the
// inverse's output; the bytes also give the scale's row factors, and the
// bytes of sBits its pencil factors, all through every scaleEdges value.
func FuzzTile(f *testing.F) {
	f.Add(uint64(0x0102030405060708), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{9, 9})
	f.Add(uint64(0x00ff00ff00ff00ff), []byte("sixteen bytes, two rows; thirty-two bytes, four"), []byte{0, 1, 2, 3})
	f.Add(uint64(0), []byte{}, []byte{3})
	f.Add(uint64(0x0807060504030201), []byte("a tile of six rows, forty-eight bytes long, no power"), []byte("factors"))
	f.Add(uint64(0x7f7f7f7f7f7f7f7f), make([]byte, 8*64), []byte{5, 6, 7, 8, 9, 10, 11, 12})

	f.Fuzz(func(t *testing.T, sBits uint64, data, rs []byte) {
		const finite = 7 // scaleEdges[:finite] are finite
		value := func(b byte, edges int) float64 {
			if int(b) < edges {
				return scaleEdges[b]
			}
			return (float64(b) - 128) / 8
		}
		n := min(max(len(data)/(2*Tile), 1), 256)
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		var x [Tile][]complex128
		for j := range x {
			x[j] = make([]complex128, n)
			for i := range x[j] {
				var re, im byte
				if len(data) > 0 {
					k := 2 * (Tile*i + j)
					re, im = data[k%len(data)], data[(k+1)%len(data)]
				}
				x[j][i] = complex(value(re, finite), value(im, finite))
			}
		}
		from, to, r := make([]int32, n), make([]int32, n), make([]float64, n)
		for i := range from {
			from[i], to[i], r[i] = int32(Tile*i), int32(Tile*i), 1
			if len(rs) > 0 {
				b := rs[i%len(rs)]
				if b&1 != 0 {
					from[i] = -1
				}
				if b&2 != 0 {
					to[i] = -1
				}
				r[i] = value(b, len(scaleEdges))
			}
		}
		c := tileCase{x: x, bufLen: Tile * n}
		if c.from, err = p.Rows(from); err != nil {
			t.Fatal(err)
		}
		if c.to, err = p.Rows(to); err != nil {
			t.Fatal(err)
		}
		var s [Tile]float64
		for j := range s {
			s[j] = value(byte(sBits>>(8*j)), len(scaleEdges))
		}
		for _, d := range tileDispatches() {
			d.run(func() {
				checkTile(t, p, c, d.name)
				tile := c.tile()
				got, want := make([]complex128, len(tile)), make([]complex128, len(tile))
				if i := scaleTileCase(got, want, tile, s, r); i >= 0 {
					t.Fatalf("%s: n=%d s=%v: ScaleTile [%d] = %v, Go loop %v", d.name, n, s, i, got[i], want[i])
				}
			})
		}
	})
}
