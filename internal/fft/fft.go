// Package fft is a from-scratch FFT library for lowcomm3d.
//
// It provides:
//
//   - 1D complex transforms of any length (iterative radix-2 for powers of
//     two, Bluestein's chirp-z algorithm otherwise) behind a reusable Plan;
//   - strided and batched execution for pencil/slab pipelines;
//   - 2D and 3D plans with optional parallel execution across lines.
//
// Convention: Forward is unnormalized (e^{-2πi nk/N}); Inverse applies the
// 1/N factor, so Inverse(Forward(x)) == x up to round-off. Multi-d plans
// apply 1/N per axis on the inverse.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan holds precomputed tables for 1D transforms of a fixed length.
// A Plan is safe for concurrent use by multiple goroutines as long as each
// call operates on distinct data (the tables are read-only after creation);
// methods that need scratch space allocate it per call or accept caller
// scratch.
type Plan struct {
	n    int
	pow2 bool
	perm []int32      // bit-reversal permutation (pow2 only)
	tw   []complex128 // tw[j] = exp(-2πi j/n), j < n/2 (pow2 only)
	bs   *bluestein   // non-pow2 lengths
}

// NewPlan creates a plan for transforms of length n ≥ 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: length %d must be ≥ 1", n)
	}
	p := &Plan{n: n, pow2: n&(n-1) == 0}
	if p.pow2 {
		p.perm = bitRevPerm(n)
		p.tw = make([]complex128, n/2)
		for j := range p.tw {
			s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
			p.tw[j] = complex(c, s)
		}
	} else {
		var err error
		p.bs, err = newBluestein(n)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// MustPlan is NewPlan that panics on error; for use with known-good sizes.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Forward computes the unnormalized DFT of src into dst (dst and src may
// alias). Both must have length N.
func (p *Plan) Forward(dst, src []complex128) error {
	return p.transform(dst, src, false)
}

// Inverse computes the normalized (1/N) inverse DFT of src into dst.
func (p *Plan) Inverse(dst, src []complex128) error {
	return p.transform(dst, src, true)
}

func (p *Plan) transform(dst, src []complex128, inverse bool) error {
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("fft: length mismatch: plan %d, dst %d, src %d", p.n, len(dst), len(src))
	}
	if p.pow2 {
		p.pow2Transform(dst, src, inverse)
	} else {
		p.bs.transform(dst, src, inverse)
	}
	return nil
}

// pow2Transform runs the iterative radix-2 DIT algorithm.
func (p *Plan) pow2Transform(dst, src []complex128, inverse bool) {
	n := p.n
	// Bit-reversal copy (handles aliasing because perm is an involution
	// applied as a gather only when dst != src; for aliasing use swaps).
	if &dst[0] == &src[0] {
		for i, j := range p.perm {
			if int(j) > i {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
	} else {
		for i, j := range p.perm {
			dst[i] = src[j]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tj := 0
			for j := start; j < start+half; j++ {
				w := p.tw[tj]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				t := w * dst[j+half]
				dst[j+half] = dst[j] - t
				dst[j] = dst[j] + t
				tj += step
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range dst {
			dst[i] *= inv
		}
	}
}

func bitRevPerm(n int) []int32 {
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	return perm
}

// ForwardStrided computes the forward DFT of the length-N strided sequence
// data[off], data[off+stride], ... in place, using the caller's scratch
// buffer (length ≥ N). Gather/scatter keeps the hot transform contiguous.
func (p *Plan) ForwardStrided(data []complex128, off, stride int, scratch []complex128) error {
	return p.strided(data, off, stride, scratch, false)
}

// InverseStrided is the inverse-transform counterpart of ForwardStrided.
func (p *Plan) InverseStrided(data []complex128, off, stride int, scratch []complex128) error {
	return p.strided(data, off, stride, scratch, true)
}

func (p *Plan) strided(data []complex128, off, stride int, scratch []complex128, inverse bool) error {
	if stride <= 0 {
		return fmt.Errorf("fft: stride %d must be positive", stride)
	}
	last := off + (p.n-1)*stride
	if off < 0 || last >= len(data) {
		return fmt.Errorf("fft: strided range [%d:%d] outside data length %d", off, last, len(data))
	}
	if len(scratch) < p.n {
		return fmt.Errorf("fft: scratch length %d < %d", len(scratch), p.n)
	}
	s := scratch[:p.n]
	for i := 0; i < p.n; i++ {
		s[i] = data[off+i*stride]
	}
	if err := p.transform(s, s, inverse); err != nil {
		return err
	}
	for i := 0; i < p.n; i++ {
		data[off+i*stride] = s[i]
	}
	return nil
}

// DFTDirect computes the unnormalized DFT by the O(n²) definition. It is
// the correctness reference used by tests and is exported so higher-level
// packages can validate against it too.
func DFTDirect(src []complex128) []complex128 {
	n := len(src)
	dst := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k*t%n) / float64(n)
			s, c := math.Sincos(ang)
			sum += src[t] * complex(c, s)
		}
		dst[k] = sum
	}
	return dst
}
