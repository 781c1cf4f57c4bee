package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
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
	// Exhaustive sweep: every transform length 1..64 (radix-2 and
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

func BenchmarkPlan1D(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		p := MustPlan(n)
		x := randComplex(n, int64(n))
		y := make([]complex128, n)
		b.Run(p2s(n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				if err := p.Forward(y, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func p2s(n int) string {
	switch n {
	case 256:
		return "n256"
	case 1024:
		return "n1024"
	case 4096:
		return "n4096"
	}
	return "n"
}

// TestPlanTransformZeroAllocs pins the 1D transform of a built plan at
// zero allocations per call: every pencil and row of the pipeline is one.
// n = 96 takes the Bluestein path, whose convolution buffer is pooled.
func TestPlanTransformZeroAllocs(t *testing.T) {
	for _, n := range []int{96, 256, 1024, 4096} {
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
		}); allocs != 0 {
			t.Errorf("n=%d: %v allocs per Forward+Inverse, want 0", n, allocs)
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
