package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesDirect(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 60, 64, 100, 128} {
		p := MustPlan(n)
		x := randComplex(n, int64(n))
		got := make([]complex128, n)
		if err := p.Forward(got, x); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := DFTDirect(x)
		if d := maxDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: max diff %g", n, d)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 13, 16, 27, 64, 81, 128, 256} {
		p := MustPlan(n)
		x := randComplex(n, int64(2*n+1))
		y := make([]complex128, n)
		if err := p.Forward(y, x); err != nil {
			t.Fatal(err)
		}
		z := make([]complex128, n)
		if err := p.Inverse(z, y); err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(z, x); d > 1e-10*float64(n) {
			t.Errorf("n=%d: round-trip diff %g", n, d)
		}
	}
}

func TestInPlaceTransform(t *testing.T) {
	for _, n := range []int{8, 12, 64} {
		p := MustPlan(n)
		x := randComplex(n, 99)
		want := make([]complex128, n)
		if err := p.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		inPlace := append([]complex128(nil), x...)
		if err := p.Forward(inPlace, inPlace); err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(inPlace, want); d > 1e-12*float64(n) {
			t.Errorf("n=%d: in-place differs by %g", n, d)
		}
	}
}

func TestImpulseResponse(t *testing.T) {
	// DFT of delta at 0 is all-ones.
	n := 16
	p := MustPlan(n)
	x := make([]complex128, n)
	x[0] = 1
	y := make([]complex128, n)
	if err := p.Forward(y, x); err != nil {
		t.Fatal(err)
	}
	for k, v := range y {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("y[%d] = %v want 1", k, v)
		}
	}
}

func TestShiftedImpulse(t *testing.T) {
	// DFT of delta at t0 is exp(-2πi·k·t0/n).
	n := 32
	t0 := 5
	p := MustPlan(n)
	x := make([]complex128, n)
	x[t0] = 1
	y := make([]complex128, n)
	if err := p.Forward(y, x); err != nil {
		t.Fatal(err)
	}
	for k := range y {
		want := cmplx.Exp(complex(0, -2*math.Pi*float64(k*t0)/float64(n)))
		if cmplx.Abs(y[k]-want) > 1e-12 {
			t.Fatalf("y[%d] = %v want %v", k, y[k], want)
		}
	}
}

func TestLinearity(t *testing.T) {
	n := 24 // exercises Bluestein
	p := MustPlan(n)
	x := randComplex(n, 1)
	y := randComplex(n, 2)
	a, b := complex(2.5, -1), complex(-0.5, 3)
	// z = a·x + b·y
	z := make([]complex128, n)
	for i := range z {
		z[i] = a*x[i] + b*y[i]
	}
	fx := make([]complex128, n)
	fy := make([]complex128, n)
	fz := make([]complex128, n)
	if err := p.Forward(fx, x); err != nil {
		t.Fatal(err)
	}
	if err := p.Forward(fy, y); err != nil {
		t.Fatal(err)
	}
	if err := p.Forward(fz, z); err != nil {
		t.Fatal(err)
	}
	for k := range fz {
		want := a*fx[k] + b*fy[k]
		if cmplx.Abs(fz[k]-want) > 1e-9 {
			t.Fatalf("linearity violated at %d: %v vs %v", k, fz[k], want)
		}
	}
}

func TestParsevalQuick(t *testing.T) {
	// Σ|x|² == (1/n)·Σ|X|² for the unnormalized forward transform.
	n := 64
	p := MustPlan(n)
	f := func(seed int64) bool {
		x := randComplex(n, seed)
		y := make([]complex128, n)
		if err := p.Forward(y, x); err != nil {
			return false
		}
		var ex, ey float64
		for i := range x {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		}
		return math.Abs(ex-ey/float64(n)) <= 1e-9*(1+ex)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0); err == nil {
		t.Error("NewPlan(0) should fail")
	}
	if _, err := NewPlan(-4); err == nil {
		t.Error("NewPlan(-4) should fail")
	}
	p := MustPlan(8)
	if err := p.Forward(make([]complex128, 4), make([]complex128, 8)); err == nil {
		t.Error("short dst should fail")
	}
	if err := p.Forward(make([]complex128, 8), make([]complex128, 4)); err == nil {
		t.Error("short src should fail")
	}
}

func TestStridedTransform(t *testing.T) {
	// Embed a length-8 sequence with stride 3 in a larger buffer and check
	// the strided transform matches the contiguous one.
	n, stride, off := 8, 3, 2
	p := MustPlan(n)
	x := randComplex(n, 7)
	buf := make([]complex128, off+n*stride+1)
	for i := 0; i < n; i++ {
		buf[off+i*stride] = x[i]
	}
	want := make([]complex128, n)
	if err := p.Forward(want, x); err != nil {
		t.Fatal(err)
	}
	scratch := make([]complex128, n)
	if err := p.ForwardStrided(buf, off, stride, scratch); err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, n)
	for i := 0; i < n; i++ {
		got[i] = buf[off+i*stride]
	}
	if d := maxDiff(got, want); d > 1e-12 {
		t.Errorf("strided diff %g", d)
	}
	// Non-strided positions must be untouched.
	if buf[0] != 0 || buf[1] != 0 {
		t.Error("strided transform wrote outside its lattice")
	}
}

func TestStridedErrors(t *testing.T) {
	p := MustPlan(8)
	buf := make([]complex128, 16)
	scratch := make([]complex128, 8)
	if err := p.ForwardStrided(buf, 0, 0, scratch); err == nil {
		t.Error("zero stride should fail")
	}
	if err := p.ForwardStrided(buf, 10, 1, scratch); err == nil {
		t.Error("overflow range should fail")
	}
	if err := p.ForwardStrided(buf, 0, 1, make([]complex128, 2)); err == nil {
		t.Error("short scratch should fail")
	}
	if err := p.InverseStrided(buf, 0, 3, scratch); err == nil {
		t.Error("stride overrun should fail")
	}
}

func TestBluesteinLargePrime(t *testing.T) {
	n := 251
	p := MustPlan(n)
	x := randComplex(n, 11)
	got := make([]complex128, n)
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	want := DFTDirect(x)
	if d := maxDiff(got, want); d > 1e-8 {
		t.Errorf("prime-length diff %g", d)
	}
}

func TestConvolutionTheorem1D(t *testing.T) {
	// Circular convolution via FFT must match the direct O(n²) sum.
	n := 16
	p := MustPlan(n)
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, n)
	h := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		h[i] = rng.Float64()
	}
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i] += x[j] * h[(i-j+n)%n]
		}
	}
	cx := make([]complex128, n)
	ch := make([]complex128, n)
	for i := range x {
		cx[i] = complex(x[i], 0)
		ch[i] = complex(h[i], 0)
	}
	if err := p.Forward(cx, cx); err != nil {
		t.Fatal(err)
	}
	if err := p.Forward(ch, ch); err != nil {
		t.Fatal(err)
	}
	for i := range cx {
		cx[i] *= ch[i]
	}
	if err := p.Inverse(cx, cx); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(real(cx[i])-want[i]) > 1e-10 {
			t.Fatalf("conv[%d] = %g want %g", i, real(cx[i]), want[i])
		}
		if math.Abs(imag(cx[i])) > 1e-12 {
			t.Fatalf("conv[%d] has imaginary part %g", i, imag(cx[i]))
		}
	}
}

func TestAllSmallSizesMatchDirect(t *testing.T) {
	// Exhaustive sweep: every transform length 1..64 (radix-4 and
	// Bluestein paths) against the O(n²) definition, plus round trips.
	for n := 1; n <= 64; n++ {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := randComplex(n, int64(1000+n))
		got := make([]complex128, n)
		if err := p.Forward(got, x); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := DFTDirect(x)
		if d := maxDiff(got, want); d > 1e-9*float64(n+1) {
			t.Errorf("n=%d: forward diff %g", n, d)
		}
		back := make([]complex128, n)
		if err := p.Inverse(back, got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxDiff(back, x); d > 1e-10*float64(n+1) {
			t.Errorf("n=%d: round-trip diff %g", n, d)
		}
	}
}

// radix2 is the textbook iterative radix-2 decimation-in-time transform the
// package ran before the radix-4 kernel: bit-reversal copy, log₂ n butterfly
// passes reading tw[j·n/size], a separate 1/n pass on the inverse. It is the
// kernel's differential oracle — same reorder, different summation order.
func radix2(src []complex128, inverse bool) []complex128 {
	n := len(src)
	dst := make([]complex128, n)
	for i, j := range bitRevPerm(n) {
		dst[i] = src[j]
	}
	sign := -1.0
	if inverse {
		sign = 1
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		for start := 0; start < n; start += size {
			for j := 0; j < half; j++ {
				s, c := math.Sincos(sign * 2 * math.Pi * float64(j) / float64(size))
				t := complex(c, s) * dst[start+j+half]
				dst[start+j+half] = dst[start+j] - t
				dst[start+j] += t
			}
		}
	}
	if inverse {
		for i := range dst {
			dst[i] *= complex(1/float64(n), 0)
		}
	}
	return dst
}

// firstDiff returns the first index at which a and b differ in any bit that
// == sees, or -1.
func firstDiff(a, b []complex128) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func maxAbs(x []complex128) float64 {
	m := 0.0
	for _, v := range x {
		m = max(m, cmplx.Abs(v))
	}
	return m
}

// TestPow2KernelMatchesRadix2 runs every power of two up to 2¹² — the three
// trivial sizes, both parities of log₂ n, so both first passes and every
// depth of radix-4 pass — forward and inverse against the radix-2 oracle
// (and the O(n²) definition while that is cheap), and checks what the
// kernel must keep whatever its summation order: the in-place result is the
// out-of-place one bit for bit, the transform is linear, Parseval holds and
// Inverse undoes Forward. It runs on both kernels (see bothKernels).
func TestPow2KernelMatchesRadix2(t *testing.T) { bothKernels(t, pow2KernelMatchesRadix2) }

func pow2KernelMatchesRadix2(t *testing.T) {
	for n := 1; n <= 1<<12; n <<= 1 {
		p := MustPlan(n)
		x, y := randComplex(n, int64(n)), randComplex(n, int64(3*n+1))
		run := func(dst, src []complex128, inverse bool) {
			t.Helper()
			f := p.Forward
			if inverse {
				f = p.Inverse
			}
			if err := f(dst, src); err != nil {
				t.Fatalf("n=%d inverse=%v: %v", n, inverse, err)
			}
		}
		for _, inverse := range []bool{false, true} {
			got := make([]complex128, n)
			run(got, x, inverse)
			want := radix2(x, inverse)
			if d := maxDiff(got, want); !(d <= 1e-13*maxAbs(want)) {
				t.Errorf("n=%d inverse=%v: differs from radix-2 by %g of %g", n, inverse, d, maxAbs(want))
			}
			inPlace := append([]complex128(nil), x...)
			run(inPlace, inPlace, inverse)
			if i := firstDiff(inPlace, got); i >= 0 {
				t.Fatalf("n=%d inverse=%v: in-place [%d] = %v, out-of-place %v", n, inverse, i, inPlace[i], got[i])
			}
		}
		fx, fy := make([]complex128, n), make([]complex128, n)
		run(fx, x, false)
		run(fy, y, false)
		scale := maxAbs(fx) + maxAbs(fy)
		if n <= 512 {
			if d := maxDiff(fx, DFTDirect(x)); !(d <= 1e-12*scale) {
				t.Errorf("n=%d: differs from the direct DFT by %g", n, d)
			}
		}
		a, b := complex(2.5, -1), complex(-0.5, 3)
		z, fz := make([]complex128, n), make([]complex128, n)
		for i := range z {
			z[i] = a*x[i] + b*y[i]
		}
		run(fz, z, false)
		var ex, efx float64
		for i := range fz {
			if d := cmplx.Abs(fz[i] - (a*fx[i] + b*fy[i])); !(d <= 1e-12*scale) {
				t.Fatalf("n=%d: linearity off by %g at %d", n, d, i)
			}
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			efx += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		if math.Abs(ex-efx/float64(n)) > 1e-12*ex {
			t.Errorf("n=%d: Parseval: Σ|x|² = %g, Σ|X|²/n = %g", n, ex, efx/float64(n))
		}
		run(fx, fx, true)
		if d := maxDiff(fx, x); !(d <= 1e-13*maxAbs(x)*float64(bits.Len(uint(n)))) {
			t.Errorf("n=%d: Inverse∘Forward is off by %g", n, d)
		}
	}
}

// TestPermEntryPoints checks the kernels without their reorder: for every
// power of two up to 2¹², ForwardFromPerm on input placed through Perm is
// Forward bit for bit, InverseToPerm read back through Perm is Inverse bit
// for bit, and both match the radix-2 oracle. Other lengths have the
// identity Perm and run Bluestein in place, matching Forward and Inverse.
// It runs on both kernels (see bothKernels).
func TestPermEntryPoints(t *testing.T) { bothKernels(t, permEntryPoints) }

func permEntryPoints(t *testing.T) {
	var sizes []int
	for n := 1; n <= 1<<12; n <<= 1 {
		sizes = append(sizes, n)
	}
	for _, n := range append(sizes, 3, 12, 96, 251) {
		p := MustPlan(n)
		perm := p.Perm()
		if len(perm) != n {
			t.Fatalf("n=%d: Perm has length %d", n, len(perm))
		}
		x := randComplex(n, int64(7*n))
		fwd, inv := make([]complex128, n), make([]complex128, n)
		if err := p.Forward(fwd, x); err != nil {
			t.Fatal(err)
		}
		if err := p.Inverse(inv, x); err != nil {
			t.Fatal(err)
		}
		placed := make([]complex128, n)
		for i, j := range perm {
			if n&(n-1) != 0 && int(j) != i {
				t.Fatalf("n=%d: Perm[%d] = %d, want the identity", n, i, j)
			}
			placed[i] = x[j]
		}
		if err := p.ForwardFromPerm(placed); err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(placed, fwd); i >= 0 {
			t.Fatalf("n=%d: ForwardFromPerm [%d] = %v, Forward %v", n, i, placed[i], fwd[i])
		}
		out := append([]complex128(nil), x...)
		if err := p.InverseToPerm(out); err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		for i, j := range perm {
			got[i] = out[j]
		}
		if i := firstDiff(got, inv); i >= 0 {
			t.Fatalf("n=%d: InverseToPerm [%d] = %v, Inverse %v", n, i, got[i], inv[i])
		}
		if n&(n-1) != 0 {
			if d := maxDiff(placed, DFTDirect(x)); !(d <= 1e-9*maxAbs(placed)) {
				t.Errorf("n=%d: Bluestein ForwardFromPerm differs from the direct DFT by %g", n, d)
			}
			continue
		}
		for _, c := range []struct {
			got     []complex128
			inverse bool
		}{{placed, false}, {got, true}} {
			want := radix2(x, c.inverse)
			if d := maxDiff(c.got, want); !(d <= 1e-13*maxAbs(want)) {
				t.Errorf("n=%d inverse=%v: differs from radix-2 by %g of %g", n, c.inverse, d, maxAbs(want))
			}
		}
	}
	p := MustPlan(8)
	if p.ForwardFromPerm(make([]complex128, 4)) == nil || p.InverseToPerm(make([]complex128, 9)) == nil {
		t.Error("a wrong-length line should fail")
	}
}

// TestPlanSharedAcrossGoroutines drives one Plan from 8 goroutines at once,
// as every stage worker of the pipeline does: under -race it fails on any
// write to the plan's tables, and each result must be the serial one.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	for _, n := range []int{64, 128} {
		p := MustPlan(n)
		x := randComplex(n, 5)
		want := make([]complex128, n)
		if err := p.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]complex128, n)
				for rep := 0; rep < 200; rep++ {
					copy(buf, x)
					if err := p.Forward(buf, buf); err != nil {
						t.Error(err)
						return
					}
					if i := firstDiff(buf, want); i >= 0 {
						t.Errorf("n=%d rep %d: [%d] = %v, serial %v", n, rep, i, buf[i], want[i])
						return
					}
					if err := p.Inverse(buf, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkPlan1D times the out-of-place forward transform at the large
// sizes and, at n = 64 and 128 — the lengths conv.Local runs — the in-place
// forward + inverse pair with its reorders (pair-inplace) and without them
// (perm-pair: ForwardFromPerm + InverseToPerm, the call shape of conv.Local's
// stages, whose copies carry the reorder).
func BenchmarkPlan1D(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		p := MustPlan(n)
		x := randComplex(n, int64(n))
		y := make([]complex128, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				if err := p.Forward(y, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{64, 128} {
		p := MustPlan(n)
		x := randComplex(n, int64(n))
		b.Run(fmt.Sprintf("pair-inplace-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(2 * 16 * n))
			for i := 0; i < b.N; i++ {
				if err := p.Forward(x, x); err != nil {
					b.Fatal(err)
				}
				if err := p.Inverse(x, x); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("perm-pair-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(2 * 16 * n))
			for i := 0; i < b.N; i++ {
				if err := p.ForwardFromPerm(x); err != nil {
					b.Fatal(err)
				}
				if err := p.InverseToPerm(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanTransformZeroAllocs pins the 1D transform of a built plan at
// zero allocations per call: every pencil and row of the pipeline is one.
// n = 96 takes the Bluestein path, whose convolution buffer is pooled; 64
// and 128 are the lengths the pipeline runs, one of each parity of log₂ n.
func TestPlanTransformZeroAllocs(t *testing.T) {
	for _, n := range []int{64, 96, 128, 256, 1024, 4096} {
		if raceEnabled && n&(n-1) != 0 {
			continue // the pool refills under -race; asserted by the non-race suite
		}
		p := MustPlan(n)
		x := randComplex(n, int64(n))
		y := make([]complex128, n)
		if allocs := testing.AllocsPerRun(100, func() {
			if err := p.Forward(y, x); err != nil {
				t.Fatal(err)
			}
			if err := p.Inverse(y, y); err != nil {
				t.Fatal(err)
			}
			if err := p.ForwardFromPerm(y); err != nil {
				t.Fatal(err)
			}
			if err := p.InverseToPerm(y); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("n=%d: %v allocs per Forward+Inverse+ForwardFromPerm+InverseToPerm, want 0", n, allocs)
		}
	}
	for _, n := range []int{256, 1024} {
		if raceEnabled {
			continue // the pooled half-length line, same rule as Bluestein's
		}
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		spec := make([]complex128, p.SpectrumLen())
		if allocs := testing.AllocsPerRun(100, func() {
			if err := p.Forward(spec, x); err != nil {
				t.Fatal(err)
			}
			if err := p.Inverse(x, spec); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("real n=%d: %v allocs per Forward+Inverse, want 0", n, allocs)
		}
	}
}
