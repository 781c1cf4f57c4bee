package fft

import (
	"fmt"
	"math"
	"sync"
)

// bluestein implements the chirp-z algorithm, computing arbitrary-length
// DFTs via a power-of-two circular convolution:
//
//	X_k = w_k · (u ⊛ v)_k,  w_k = e^{-iπk²/n},  u_t = x_t·w_t,
//	v_t = e^{+iπt²/n} (two-sided, wrapped into the padded buffer).
type bluestein struct {
	n    int
	m    int // power-of-two convolution length ≥ 2n-1
	sub  *Plan
	w    []complex128 // chirp w_k, k < n
	vhat []complex128 // forward FFT of wrapped conj-chirp, length m

	// scratch pools the length-m convolution buffer: plans are shared
	// across goroutines, and a transform must not allocate per call.
	scratch sync.Pool
}

func newBluestein(n int) (*bluestein, error) {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	sub, err := NewPlan(m)
	if err != nil {
		return nil, fmt.Errorf("fft: bluestein sub-plan: %w", err)
	}
	b := &bluestein{n: n, m: m, sub: sub}
	b.w = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k² mod 2n to keep the angle argument small and accurate.
		q := (k * k) % (2 * n)
		s, c := math.Sincos(-math.Pi * float64(q) / float64(n))
		b.w[k] = complex(c, s)
	}
	v := make([]complex128, m)
	for t := 0; t < n; t++ {
		cw := complex(real(b.w[t]), -imag(b.w[t])) // conj chirp
		v[t] = cw
		if t > 0 {
			v[m-t] = cw
		}
	}
	if err := sub.Forward(v, v); err != nil {
		return nil, err
	}
	b.vhat = v
	b.scratch.New = func() any {
		u := make([]complex128, m)
		return &u
	}
	return b, nil
}

func (b *bluestein) transform(dst, src []complex128, inverse bool) {
	up := b.scratch.Get().(*[]complex128)
	defer b.scratch.Put(up)
	u := *up
	// The chirp multiply places u through the sub-plan's bit reversal and
	// the final one reads it back, so the sub-transforms run without their
	// reorders; the zero padding lands anywhere, hence the whole clear.
	clear(u)
	perm := b.sub.perm
	if inverse {
		// Inverse via conjugation: IDFT(x) = conj(DFT(conj(x)))/n.
		for t := 0; t < b.n; t++ {
			u[perm[t]] = complex(real(src[t]), -imag(src[t])) * b.w[t]
		}
	} else {
		for t := 0; t < b.n; t++ {
			u[perm[t]] = src[t] * b.w[t]
		}
	}
	// Convolution with the fixed chirp kernel.
	b.sub.kernel(u, false)
	for i := range u {
		u[i] *= b.vhat[i]
	}
	b.sub.kernel(u, true)
	if inverse {
		inv := 1 / float64(b.n)
		for k := 0; k < b.n; k++ {
			y := u[perm[k]] * b.w[k]
			dst[k] = complex(real(y)*inv, -imag(y)*inv)
		}
	} else {
		for k := 0; k < b.n; k++ {
			dst[k] = u[perm[k]] * b.w[k]
		}
	}
}
