package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randReal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestRealForwardMatchesComplex(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 64, 128, 6, 10} {
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := randReal(n, int64(n))
		half := make([]complex128, rp.SpectrumLen())
		if err := rp.Forward(half, x); err != nil {
			t.Fatal(err)
		}
		// Reference: full complex transform.
		cx := make([]complex128, n)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		want := make([]complex128, n)
		if err := mustPlan(n).Forward(want, cx); err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(half[k] - want[k]); d > 1e-10*float64(n) {
				t.Errorf("n=%d k=%d: r2c %v complex %v", n, k, half[k], want[k])
			}
		}
	}
}

func TestRealRoundTrip(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256} {
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randReal(n, 7)
		half := make([]complex128, rp.SpectrumLen())
		if err := rp.Forward(half, x); err != nil {
			t.Fatal(err)
		}
		back := make([]float64, n)
		if err := rp.Inverse(back, half); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-11*float64(n) {
				t.Fatalf("n=%d: round trip diff at %d: %g vs %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestRealPlanSpecialCoefficients(t *testing.T) {
	// X[0] = Σx (DC) and X[n/2] = Σ(−1)^i·x must be purely real.
	n := 32
	rp, _ := NewRealPlan(n)
	x := randReal(n, 3)
	half := make([]complex128, rp.SpectrumLen())
	if err := rp.Forward(half, x); err != nil {
		t.Fatal(err)
	}
	sum, alt := 0.0, 0.0
	for i, v := range x {
		sum += v
		if i%2 == 0 {
			alt += v
		} else {
			alt -= v
		}
	}
	if math.Abs(real(half[0])-sum) > 1e-10 || math.Abs(imag(half[0])) > 1e-10 {
		t.Errorf("DC = %v want %g", half[0], sum)
	}
	if math.Abs(real(half[n/2])-alt) > 1e-10 || math.Abs(imag(half[n/2])) > 1e-10 {
		t.Errorf("Nyquist = %v want %g", half[n/2], alt)
	}
}

func TestRealPlanErrors(t *testing.T) {
	if _, err := NewRealPlan(3); err == nil {
		t.Error("odd n should fail")
	}
	if _, err := NewRealPlan(0); err == nil {
		t.Error("n=0 should fail")
	}
	rp, _ := NewRealPlan(8)
	if err := rp.Forward(make([]complex128, 4), make([]float64, 8)); err == nil {
		t.Error("short spectrum should fail")
	}
	if err := rp.Forward(make([]complex128, 5), make([]float64, 6)); err == nil {
		t.Error("short input should fail")
	}
	if err := rp.Inverse(make([]float64, 8), make([]complex128, 4)); err == nil {
		t.Error("short spectrum should fail")
	}
	if err := rp.Inverse(make([]float64, 6), make([]complex128, 5)); err == nil {
		t.Error("short output should fail")
	}
}

func TestRealParseval(t *testing.T) {
	n := 64
	rp, _ := NewRealPlan(n)
	x := randReal(n, 9)
	half := make([]complex128, rp.SpectrumLen())
	if err := rp.Forward(half, x); err != nil {
		t.Fatal(err)
	}
	ex := 0.0
	for _, v := range x {
		ex += v * v
	}
	// Σ|X|² over the full spectrum = DC + Nyquist + 2×interior half.
	ey := real(half[0])*real(half[0]) + real(half[n/2])*real(half[n/2])
	for k := 1; k < n/2; k++ {
		m := cmplx.Abs(half[k])
		ey += 2 * m * m
	}
	if math.Abs(ex-ey/float64(n)) > 1e-9*(1+ex) {
		t.Errorf("Parseval: %g vs %g", ex, ey/float64(n))
	}
}

func BenchmarkRealVsComplexFFT(b *testing.B) {
	n := 4096
	rp, _ := NewRealPlan(n)
	cp := mustPlan(n)
	x := randReal(n, 1)
	half := make([]complex128, rp.SpectrumLen())
	cx := make([]complex128, n)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	cy := make([]complex128, n)
	b.Run("r2c", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			if err := rp.Forward(half, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("complex", func(b *testing.B) {
		b.SetBytes(int64(16 * n))
		for i := 0; i < b.N; i++ {
			if err := cp.Forward(cy, cx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
