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
		p := MustPlan(n)
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
