package fft

import (
	"math"
	"math/rand"
	"testing"
)

// goLoops runs f with every pass of the kernel on its Go loop, whatever the
// CPU has, and restores the dispatch after.
func goLoops(f func()) {
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	f()
}

// bothKernels runs check on the dispatched kernel and, where that is the
// AVX one, again on the Go loops, so the fallback stays tested on amd64.
func bothKernels(t *testing.T, check func(t *testing.T)) {
	check(t)
	if useAVX {
		t.Run("go-loops", func(t *testing.T) { goLoops(func() { check(t) }) })
	}
}

// firstBitDiff returns the first index at which a and b differ in any bit,
// the sign of a zero included, or -1.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// edgeInput is a line whose parts are, with probability edge, one of ±0,
// subnormals and ±1e300 and otherwise normal values over twelve decades, at
// magnitudes that cannot overflow a forward or inverse transform of up to
// 2¹⁴ points.
func edgeInput(n int, seed int64, edge float64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -3.3e-310, 2.2e-308, 1e300, -1e300}
	part := func() float64 {
		if rng.Float64() < edge {
			return edges[rng.Intn(len(edges))]
		}
		return rng.NormFloat64() * math.Exp2(float64(rng.Intn(41)-20))
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(part(), part())
	}
	return x
}

// signedZeros is a line of +0 and −0 parts at random: the sums in which the
// sign of a zero survives.
func signedZeros(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Copysign(0, rng.Float64()-0.5), math.Copysign(0, rng.Float64()-0.5))
	}
	return x
}

// boxLine is the line shape of the convolution pipeline: zero but for a
// run of n/4 (at least one) values from seed, from offset 3n/8 on.
func boxLine(n int, seed int64) []complex128 {
	x := make([]complex128, n)
	copy(x[3*n/8:], randComplex(max(n/4, 1), seed))
	return x
}

// TestAVXKernelMatchesGo holds the AVX passes to the Go loops bit for bit:
// every power of two up to 2¹⁴, so both first-pass radices and every pass
// size, forward and inverse, out of place, in place and through
// ForwardFromPerm/InverseToPerm, on edge values (edgeInput), on signed zeros
// and on the zero-padded lines the pipeline transforms.
func TestAVXKernelMatchesGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX kernel on this CPU")
	}
	// transforms runs the six entry points on x and returns their outputs.
	transforms := func(p *Plan, x []complex128) [6][]complex128 {
		n := len(x)
		var out [6][]complex128
		for i := range out {
			out[i] = make([]complex128, n)
		}
		must := func(err error) {
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
		must(p.Forward(out[0], x))
		must(p.Inverse(out[1], x))
		copy(out[2], x)
		must(p.Forward(out[2], out[2]))
		copy(out[3], x)
		must(p.Inverse(out[3], out[3]))
		for i, j := range p.Perm() {
			out[4][i] = x[j]
		}
		must(p.ForwardFromPerm(out[4]))
		copy(out[5], x)
		must(p.InverseToPerm(out[5]))
		return out
	}
	names := [6]string{"Forward", "Inverse", "in-place Forward", "in-place Inverse", "ForwardFromPerm", "InverseToPerm"}
	for n := 1; n <= 1<<14; n <<= 1 {
		p := mustPlan(n)
		for k, x := range [][]complex128{
			edgeInput(n, int64(n), 0.25), edgeInput(n, int64(n)+1, 0.9), signedZeros(n, int64(n)), boxLine(n, int64(n)),
		} {
			got := transforms(p, x)
			var want [6][]complex128
			goLoops(func() { want = transforms(p, x) })
			for m := range got {
				if i := firstBitDiff(got[m], want[m]); i >= 0 {
					t.Fatalf("n=%d input %d: %s [%d] = %v, Go loops %v", n, k, names[m], i, got[m][i], want[m][i])
				}
			}
		}
	}
}

// scaleEdges are the parts TestScaleRealMatchesGo and FuzzScaleReal mix
// into their lines and factors: signed zeros, subnormals, ±1e300 (whose
// products overflow) and ±Inf (whose products with zero are NaN).
var scaleEdges = []float64{0, math.Copysign(0, -1), 5e-324, -3.3e-310, 2.2e-308, 1e300, -1e300, math.Inf(1), math.Inf(-1)}

// scaleRealCase runs ScaleReal on x copied into got, dispatched, and into
// want, on the Go loop, and returns the first index at which the two
// differ in any bit.
func scaleRealCase(got, want, x []complex128, s float64, r []float64) int {
	got, want = got[:len(x)], want[:len(x)]
	copy(got, x)
	copy(want, x)
	ScaleReal(got, s, r)
	goLoops(func() { ScaleReal(want, s, r) })
	return firstBitDiff(got, want)
}

// TestScaleRealMatchesGo holds scaleRealAVX to ScaleReal's Go loop bit for
// bit on every length 0…2¹⁴, odd tails included, for s ∈ {0, −0, 1,
// random} in turn. Lines of up to 256 points take a quarter of their parts
// from scaleEdges, longer ones one in 256, so that the subnormals' slow
// arithmetic does not swamp the sweep. Under the race detector, which has
// nothing to watch in this one goroutine, the sweep stops at 2¹⁰.
func TestScaleRealMatchesGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX kernel on this CPU")
	}
	const dense = 256
	most := 1 << 14
	if raceEnabled {
		most = 1 << 10
	}
	rng := rand.New(rand.NewSource(1))
	line := func(m, edgeEvery int) ([]complex128, []float64) {
		part := func() float64 {
			if rng.Intn(edgeEvery) == 0 {
				return scaleEdges[rng.Intn(len(scaleEdges))]
			}
			return rng.NormFloat64() * math.Exp2(float64(rng.Intn(41)-20))
		}
		x, r := make([]complex128, m), make([]float64, 2*m)
		for i := range x {
			x[i], r[2*i], r[2*i+1] = complex(part(), part()), part(), part()
		}
		return x, r
	}
	xd, rd := line(2*dense, 4)
	xs, rs := line(2*most, dense)
	ScaleReal(nil, 1, nil) // nothing to scale, nothing read
	got, want := make([]complex128, most), make([]complex128, most)
	for n := 0; n <= most; n++ {
		x, r := xd, rd
		if n > dense {
			x, r = xs, rs
		}
		s := [4]float64{0, math.Copysign(0, -1), 1, rng.NormFloat64()}[(n/2)%4]
		o := rng.Intn(len(x) - n + 1) // a fresh window of the lines for each length
		if i := scaleRealCase(got, want, x[o:o+n], s, r[2*o:2*(o+n)]); i >= 0 {
			t.Fatalf("n=%d s=%v: [%d] = %v, Go loop %v (x %v, r %v)", n, s, i, got[i], want[i], x[o+i], r[2*(o+i):2*(o+i+1)])
		}
	}
}

// BenchmarkScaleReal times one ScaleReal of a 128-point line, the kernel
// multiply of a conv.Local z pencil at n = 128, dispatched and on the Go
// loop.
func BenchmarkScaleReal(b *testing.B) {
	const n = 128
	x, r := randComplex(n, 1), make([]float64, 2*n)
	for i := range r {
		r[i] = 1 // the line stays as it is, never drifting into subnormals
	}
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScaleReal(x, 1, r)
		}
	}
	b.Run("dispatched", run)
	b.Run("go-loop", func(b *testing.B) { goLoops(func() { run(b) }) })
}
