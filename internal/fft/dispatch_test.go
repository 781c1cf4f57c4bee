package fft

import (
	"math"
	"math/rand"
	"testing"
)

// goLoops runs f with every pass of the kernel on its Go loop and every
// tile on the line path, whatever the CPU has, and restores the dispatch
// after.
func goLoops(f func()) {
	saved, saved512 := useAVX, useAVX512
	useAVX, useAVX512 = false, false
	defer func() { useAVX, useAVX512 = saved, saved512 }()
	f()
}

// noAVX512 runs f with every tile on the AVX twin where it would run on
// the AVX-512 one, as on a CPU without AVX-512, and restores the dispatch
// after.
func noAVX512(f func()) {
	saved := useAVX512
	useAVX512 = false
	defer func() { useAVX512 = saved }()
	f()
}

// lineTiles runs f with every tile on the line path, the line kernels
// dispatched as the CPU allows, and restores the dispatch after.
func lineTiles(f func()) {
	tileLines = true
	defer func() { tileLines = false }()
	f()
}

// dispatch is one way this CPU can run a tile: its name and a runner that
// runs f under it.
type dispatch struct {
	name string
	run  func(f func())
}

// tileDispatches lists the dispatches this CPU has: the AVX-512 tile twin,
// the AVX one, the line path on the AVX line kernels, and the Go loops.
func tileDispatches() []dispatch {
	var ds []dispatch
	if useAVX512 {
		ds = append(ds, dispatch{"avx512-tile", func(f func()) { f() }})
	}
	if useAVX {
		ds = append(ds, dispatch{"avx-tile", noAVX512}, dispatch{"avx-lines", lineTiles})
	}
	return append(ds, dispatch{"go-loops", goLoops})
}

// TestDispatch logs the dispatch this CPU selects, so that a test log says
// which twins the run covered.
func TestDispatch(t *testing.T) {
	t.Logf("fft dispatch: AVX %v, AVX-512 %v", useAVX, useAVX512)
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

// scaleEdges are the parts TestScaleTileMatchesGo and FuzzTile mix into
// their tiles and factors: signed zeros, subnormals, ±1e300 (whose
// products overflow) and ±Inf (whose products with zero are NaN).
var scaleEdges = []float64{0, math.Copysign(0, -1), 5e-324, -3.3e-310, 2.2e-308, 1e300, -1e300, math.Inf(1), math.Inf(-1)}

// scaleTileCase runs ScaleTile on x copied into got, dispatched, and into
// want, on the Go loop, and returns the first index at which the two
// differ in any bit.
func scaleTileCase(got, want, x []complex128, s [Tile]float64, r []float64) int {
	got, want = got[:len(x)], want[:len(x)]
	copy(got, x)
	copy(want, x)
	ScaleTile(got, s, r)
	goLoops(func() { ScaleTile(want, s, r) })
	return firstBitDiff(got, want)
}

// TestScaleTileMatchesGo holds scaleTileAVX to ScaleTile's Go loop bit for
// bit on every tile of 0…2¹² rows (2¹⁴ points), with each pencil's factor
// drawn from {0, −0, 1, random} in turn. Tiles of up to 64 rows take a
// quarter of their parts and row factors from scaleEdges, longer ones one
// in 256, so that the subnormals' slow arithmetic does not swamp the
// sweep. Under the race detector, which has nothing to watch in this one
// goroutine, the sweep stops at 2⁸ rows.
func TestScaleTileMatchesGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX kernel on this CPU")
	}
	const dense = 64
	most := 1 << 12
	if raceEnabled {
		most = 1 << 8
	}
	rng := rand.New(rand.NewSource(1))
	tile := func(m, edgeEvery int) ([]complex128, []float64) {
		part := func() float64 {
			if rng.Intn(edgeEvery) == 0 {
				return scaleEdges[rng.Intn(len(scaleEdges))]
			}
			return rng.NormFloat64() * math.Exp2(float64(rng.Intn(41)-20))
		}
		x, r := make([]complex128, Tile*m), make([]float64, m)
		for i := range x {
			x[i] = complex(part(), part())
		}
		for i := range r {
			r[i] = part()
		}
		return x, r
	}
	xd, rd := tile(2*dense, 4)
	xs, rs := tile(2*most, dense*4)
	ScaleTile(nil, [Tile]float64{}, nil) // nothing to scale, nothing read
	got, want := make([]complex128, Tile*most), make([]complex128, Tile*most)
	for m := 0; m <= most; m++ {
		x, r := xd, rd
		if m > dense {
			x, r = xs, rs
		}
		var s [Tile]float64
		for j := range s {
			s[j] = [4]float64{0, math.Copysign(0, -1), 1, rng.NormFloat64()}[(m+j)%4]
		}
		o := rng.Intn(len(r) - m + 1) // a fresh window of the tile for each size
		if i := scaleTileCase(got, want, x[Tile*o:Tile*(o+m)], s, r[o:o+m]); i >= 0 {
			t.Fatalf("rows=%d s=%v: [%d] = %v, Go loop %v (x %v, r %v)", m, s, i, got[i], want[i], x[Tile*o+i], r[o+i/Tile])
		}
	}
}

// BenchmarkScaleTile times one ScaleTile of a 128-row tile, the kernel
// multiply of a conv.Local tile at n = 128, dispatched and on the Go loop.
func BenchmarkScaleTile(b *testing.B) {
	const n = 128
	x, r := randComplex(Tile*n, 1), make([]float64, n)
	for i := range r {
		r[i] = 1 // the tile stays as it is, never drifting into subnormals
	}
	s := [Tile]float64{1, 1, 1, 1}
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScaleTile(x, s, r)
		}
	}
	b.Run("dispatched", run)
	b.Run("go-loop", func(b *testing.B) { goLoops(func() { run(b) }) })
}
