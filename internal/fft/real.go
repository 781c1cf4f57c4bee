package fft

import (
	"fmt"
	"math"
	"sync"
)

// RealPlan computes DFTs of real sequences of even length n using the
// classic half-length complex packing: the n real samples are packed into
// n/2 complex values, transformed with one half-length FFT, and unpacked
// into the n/2+1 independent spectrum coefficients. This is the r2c/c2r
// split the paper's pipeline uses (the r2c and c2r sub-plans of Fig. 5)
// and halves the transform memory relative to a complex transform
// of padded real data.
type RealPlan struct {
	n    int
	half *Plan
	w    []complex128 // e^{-2πik/n}, k ≤ n/2

	// scratch pools the half-length packed line: plans are shared across
	// goroutines, and a transform must not allocate per call.
	scratch sync.Pool
}

// NewRealPlan creates a plan for real transforms of even length n ≥ 2.
func NewRealPlan(n int) (*RealPlan, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("fft: real plan requires even n ≥ 2, got %d", n)
	}
	half, err := NewPlan(n / 2)
	if err != nil {
		return nil, err
	}
	w := make([]complex128, n/2+1)
	for k := range w {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		w[k] = complex(c, s)
	}
	p := &RealPlan{n: n, half: half, w: w}
	p.scratch.New = func() any {
		z := make([]complex128, n/2)
		return &z
	}
	return p, nil
}

// SpectrumLen returns the number of independent complex coefficients,
// n/2 + 1 (the remaining half follows from Hermitian symmetry).
func (p *RealPlan) SpectrumLen() int { return p.n/2 + 1 }

// Forward computes the unnormalized DFT of the real sequence src into the
// half spectrum dst: dst[k] = X[k] for k = 0..n/2.
func (p *RealPlan) Forward(dst []complex128, src []float64) error {
	if len(src) != p.n {
		return fmt.Errorf("fft: real src length %d != %d", len(src), p.n)
	}
	if len(dst) != p.SpectrumLen() {
		return fmt.Errorf("fft: spectrum length %d != %d", len(dst), p.SpectrumLen())
	}
	h := p.n / 2
	zp := p.scratch.Get().(*[]complex128)
	defer p.scratch.Put(zp)
	z := *zp
	// The packing places z through the half plan's Perm, so the transform
	// skips its reorder; Inverse's final copy reads back through it.
	for j, i := range p.half.perm {
		z[i] = complex(src[2*j], src[2*j+1])
	}
	p.half.kernel(z, false)
	// Unpack: with E, O the DFTs of the even/odd subsequences,
	// Z[k] = E[k] + i·O[k] and conj(Z[h−k]) = E[k] − i·O[k], so
	// X[k] = E[k] + w^k·O[k].
	zAt := func(k int) complex128 { return z[k%h] }
	for k := 0; k <= h; k++ {
		zk := zAt(k)
		zc := conj(zAt((h - k) % h))
		// Real scalings of the parts: a complex128 division is a runtime call.
		sum, dif := zk+zc, zk-zc
		e := complex(real(sum)/2, imag(sum)/2)
		o := complex(imag(dif)/2, -real(dif)/2) // dif / 2i
		dst[k] = e + p.w[k]*o
	}
	return nil
}

// Inverse computes the normalized (1/n) inverse DFT of the half spectrum
// src (length n/2+1, Hermitian-extended implicitly) into the real
// sequence dst.
func (p *RealPlan) Inverse(dst []float64, src []complex128) error {
	if len(dst) != p.n {
		return fmt.Errorf("fft: real dst length %d != %d", len(dst), p.n)
	}
	if len(src) != p.SpectrumLen() {
		return fmt.Errorf("fft: spectrum length %d != %d", len(src), p.SpectrumLen())
	}
	h := p.n / 2
	zp := p.scratch.Get().(*[]complex128)
	defer p.scratch.Put(zp)
	z := *zp
	for k := 0; k < h; k++ {
		xk := src[k]
		xc := conj(src[h-k])
		sum := xk + xc
		e := complex(real(sum)/2, imag(sum)/2)
		// O[k] = (X[k] − conj(X[h−k]))·w^{-k}/2.
		o := (xk - xc) * conj(p.w[k])
		z[k] = e + complex(-imag(o)/2, real(o)/2) // e + i·o
	}
	p.half.kernel(z, true)
	for j, i := range p.half.perm {
		dst[2*j] = real(z[i])
		dst[2*j+1] = imag(z[i])
	}
	return nil
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }
