// Package fft is a from-scratch FFT library for lowcomm3d.
//
// It provides:
//
//   - 1D complex transforms of any length behind a reusable Plan: for
//     powers of two a radix-4 decimation-in-time kernel forward and its
//     decimation-in-frequency transpose inverse, with the bit reversal a
//     separate step (see Perm); Bluestein's chirp-z algorithm otherwise;
//   - strided and batched execution for pencil/slab pipelines;
//   - tile transforms of Tile = 4 interleaved pencils, the paper's "B
//     pencils at a time" (TileForward, TileInverse, ScaleTile; tile.go);
//   - 2D and 3D plans with optional parallel execution across lines.
//
// The kernels have assembly twins, and every twin keeps one rule: it does
// its Go loop's operations in the Go loop's order and uses no FMA, so every
// output bit, the sign of a zero included, is the Go loop's. On amd64:
//
//   - when CPUID and XGETBV report AVX with the YMM state saved by the OS
//     (checked once, at package init, into useAVX), every pass of the
//     power-of-two line kernel — radix4, radix4DIF, firstPass and lastPass
//     — runs as its AVX twin in fft_amd64.s, two complex128 per register;
//     so do ScaleTile (scaleTileAVX) and every pass of a power-of-two tile
//     transform, half a tile row per register;
//   - when they also report AVX-512 F and DQ with the ZMM state saved
//     (useAVX512), a tile transform's passes and ScaleTile run as their
//     AVX-512 twins in tile_amd64.s instead, one tile row per register.
//
// Either tile twin's first pass loads its rows straight from the caller's
// buffer, and its inverse's last pass stores straight into it. Without AVX,
// and for lengths that are not a power of two, a tile takes the line path:
// one walk of its rows splits the pencils into Tile lines of the caller's
// scratch, each runs through the line kernel, and one walk interleaves
// them back — the reference TestTileMatchesLines holds both twins to.
// conv.Local runs every transform of its stages B and C as a tile, one
// lane per kx.
//
// Off amd64 the Go loops are the kernel.
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
	bs   *bluestein // non-pow2 lengths

	perm []int32 // see Perm: the bit reversal, or the identity for non-pow2 lengths

	// Power-of-two lengths (see dit and dif).
	swaps     []int32    // perm's 2-cycles as (i, j) pairs: the in-place reorder
	tw, twInv []twiddle3 // per-pass twiddle triples, forward and conjugate
	// The same twiddles as the AVX line passes and the tile passes read
	// them, built whatever the CPU so that a plan serves every path the
	// dispatch selects.
	twAVX, twInvAVX   []twiddlePair
	twTile, twInvTile []tileTwiddle
}

// NewPlan creates a plan for transforms of length n ≥ 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: length %d must be ≥ 1", n)
	}
	p := &Plan{n: n, pow2: n&(n-1) == 0}
	if p.pow2 {
		p.perm = bitRevPerm(n)
		p.swaps = swapPairs(p.perm)
		p.tw = twiddleTable(n, -1)
		p.twInv = twiddleTable(n, +1)
		p.twAVX = pairTwiddles(p.tw)
		p.twInvAVX = pairTwiddles(p.twInv)
		p.twTile = tileTwiddles(p.tw)
		p.twInvTile = tileTwiddles(p.twInv)
	} else {
		var err error
		p.bs, err = newBluestein(n)
		if err != nil {
			return nil, err
		}
		p.perm = make([]int32, n)
		for i := range p.perm {
			p.perm[i] = int32(i)
		}
	}
	return p, nil
}

// Perm returns the order ForwardFromPerm and TileForward read and
// TileInverse writes: position i holds element Perm()[i]. It is the bit reversal for powers of
// two and the identity otherwise, and it is its own inverse. The slice is
// the plan's table and must not be modified.
func (p *Plan) Perm() []int32 { return p.perm }

// Forward computes the unnormalized DFT of src into dst (dst and src may
// alias). Both must have length N.
func (p *Plan) Forward(dst, src []complex128) error { return p.transform(dst, src, false) }

// Inverse computes the normalized (1/N) inverse DFT of src into dst.
func (p *Plan) Inverse(dst, src []complex128) error { return p.transform(dst, src, true) }

// ForwardFromPerm is Forward in place on input stored in Perm order,
// x[i] = input[Perm()[i]]: the transform without its reorder, for callers
// that place their data through Perm in a copy they make anyway. The
// result is in natural order and bit for bit Forward's.
func (p *Plan) ForwardFromPerm(x []complex128) error { return p.inPerm(x, false) }

// transform is the kernel with the reorder around it: swaps in place, the
// Perm gather before the forward kernel out of place.
func (p *Plan) transform(dst, src []complex128, inverse bool) error {
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("fft: length mismatch: plan %d, dst %d, src %d", p.n, len(dst), len(src))
	}
	switch {
	case !p.pow2:
		p.bs.transform(dst, src, inverse)
		return nil
	case inverse:
		if &dst[0] != &src[0] {
			copy(dst, src)
		}
		p.dif(dst)
		p.swap(dst)
		return nil
	case &dst[0] == &src[0]:
		p.swap(dst)
	default:
		for i, j := range p.perm {
			dst[i] = src[j]
		}
	}
	p.dit(dst)
	return nil
}

func (p *Plan) inPerm(x []complex128, inverse bool) error {
	if len(x) != p.n {
		return fmt.Errorf("fft: length mismatch: plan %d, line %d", p.n, len(x))
	}
	p.kernel(x, inverse)
	return nil
}

// kernel transforms x in place without a reorder: forward from Perm order,
// inverse into it.
func (p *Plan) kernel(x []complex128, inverse bool) {
	switch {
	case !p.pow2:
		p.bs.transform(x, x, inverse)
	case inverse:
		p.dif(x)
	default:
		p.dit(x)
	}
}

// swap applies the bit reversal in place. It is an involution: swapping
// each pair once is the whole reorder.
func (p *Plan) swap(x []complex128) {
	sw := p.swaps
	for k := 1; k < len(sw); k += 2 {
		i, j := sw[k-1], sw[k]
		x[i], x[j] = x[j], x[i]
	}
}

// dit is the forward power-of-two kernel: an in-place radix-4
// decimation-in-time transform of bit-reversed input into natural-order
// output. Two consecutive radix-2 stages of the textbook algorithm are one
// radix-4 pass here, so the reorder is the plain bit reversal whatever the
// parity of log₂ n; the first pass does a whole size-8 (odd log₂ n) or
// size-4 (even) transform in registers.
func (p *Plan) dit(x []complex128) {
	n := p.n
	if n <= 2 {
		if n == 2 {
			x[0], x[1] = x[0]+x[1], x[0]-x[1]
		}
		return
	}
	q := firstRadix(n)
	firstPass(x, q)
	for o := 0; q < n; o, q = o+q, q<<2 { // o: the pass's first triple
		if useAVX {
			radix4AVX(x, p.twAVX[o/2:(o+q)/2])
			continue
		}
		w := p.tw[o : o+q]
		for base := 0; base < n; base += 4 * q {
			blk := x[base : base+4*q]
			radix4(blk[:q], blk[q:2*q], blk[2*q:3*q], blk[3*q:], w)
		}
	}
}

// dif is the inverse power-of-two kernel, dit's transpose: an in-place
// radix-4 decimation-in-frequency transform of natural-order input into
// bit-reversed output, with 1/n folded in. Its passes run from blocks of n
// down, then lastPass finishes every block of 8 or 4 in registers.
func (p *Plan) dif(x []complex128) {
	n := p.n
	s := 1 / float64(n)
	if n <= 2 {
		if n == 2 {
			x[0], x[1] = x[0]+x[1], x[0]-x[1]
			x[1] = scaled(x[1], s)
		}
		x[0] = scaled(x[0], s)
		return
	}
	r := firstRadix(n)
	for q := n / 4; q >= r; q >>= 2 {
		o := (q - r) / 3 // the passes below q fill twInv up to here
		if useAVX {
			radix4DIFAVX(x, p.twInvAVX[o/2:(o+q)/2])
			continue
		}
		w := p.twInv[o : o+q]
		for base := 0; base < n; base += 4 * q {
			blk := x[base : base+4*q]
			radix4DIF(blk[:q], blk[q:2*q], blk[2*q:3*q], blk[3*q:], w)
		}
	}
	lastPass(x, r, s)
}

// firstRadix is the block size of the first pass for n ≥ 4: 8 when log₂ n is
// odd, 4 when it is even, so that radix-4 passes reach n exactly.
func firstRadix(n int) int { return 4 << (bits.TrailingZeros(uint(n)) & 1) }

// firstPass transforms every aligned block of radix (8 or 4) bit-reversed
// points of x in registers — the only twiddles are ±i and (±1±i)/√2.
func firstPass(x []complex128, radix int) {
	if useAVX && len(x) > radix { // the AVX twins take blocks in pairs
		if radix == 4 {
			firstPass4AVX(x)
		} else {
			firstPass8AVX(x)
		}
		return
	}
	if radix == 4 {
		for len(x) >= 4 {
			x[0], x[1], x[2], x[3] = dft4(x[0], x[1], x[2], x[3])
			x = x[4:]
		}
		return
	}
	const h = math.Sqrt2 / 2
	for len(x) >= 8 {
		a0, a1, a2, a3, a4, a5, a6, a7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
		b0, b1, b2, b3 := a0+a1, a0-a1, a2+a3, mulNegI(a2-a3)
		b4, b5, b6, b7 := a4+a5, a4-a5, a6+a7, mulNegI(a6-a7)
		c0, c1, c2, c3 := b0+b2, b1+b3, b0-b2, b1-b3
		c4, c5, c6, c7 := b4+b6, b5+b7, mulNegI(b4-b6), b5-b7
		// W₈·c5 and W₈³·c7, W₈ = (1−i)/√2.
		c5 = complex((real(c5)+imag(c5))*h, (imag(c5)-real(c5))*h)
		c7 = complex((imag(c7)-real(c7))*h, -(real(c7)+imag(c7))*h)
		x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7] = c0+c4, c1+c5, c2+c6, c3+c7, c0-c4, c1-c5, c2-c6, c3-c7
		x = x[8:]
	}
}

// lastPass inverse-transforms every aligned block of radix (8 or 4)
// natural-order points of x in registers, scaling each load by s, and
// stores the block bit-reversed. A block's inverse DFT is the forward DFT of
// its mirror a[−m], so the loads feed firstPass's arithmetic that mirror in
// bit-reversed order.
func lastPass(x []complex128, radix int, s float64) {
	if useAVX && len(x) > radix { // the AVX twins take blocks in pairs
		if radix == 4 {
			lastPass4AVX(x, s)
		} else {
			lastPass8AVX(x, s)
		}
		return
	}
	if radix == 4 {
		for len(x) >= 4 {
			x[0], x[2], x[1], x[3] = dft4(scaled(x[0], s), scaled(x[2], s), scaled(x[3], s), scaled(x[1], s))
			x = x[4:]
		}
		return
	}
	const h = math.Sqrt2 / 2
	for len(x) >= 8 {
		// firstPass's size-8 block, spelled out again: as a function it
		// would not be inlined, and the call costs a tenth of the transform.
		a0, a1, a2, a3 := scaled(x[0], s), scaled(x[4], s), scaled(x[6], s), scaled(x[2], s)
		a4, a5, a6, a7 := scaled(x[7], s), scaled(x[3], s), scaled(x[5], s), scaled(x[1], s)
		b0, b1, b2, b3 := a0+a1, a0-a1, a2+a3, mulNegI(a2-a3)
		b4, b5, b6, b7 := a4+a5, a4-a5, a6+a7, mulNegI(a6-a7)
		c0, c1, c2, c3 := b0+b2, b1+b3, b0-b2, b1-b3
		c4, c5, c6, c7 := b4+b6, b5+b7, mulNegI(b4-b6), b5-b7
		c5 = complex((real(c5)+imag(c5))*h, (imag(c5)-real(c5))*h)
		c7 = complex((imag(c7)-real(c7))*h, -(real(c7)+imag(c7))*h)
		x[0], x[4], x[2], x[6], x[1], x[5], x[3], x[7] = c0+c4, c1+c5, c2+c6, c3+c7, c0-c4, c1-c5, c2-c6, c3-c7
		x = x[8:]
	}
}

// dft4 is the forward DFT of a bit-reversed block of four, in natural order.
func dft4(a0, a1, a2, a3 complex128) (y0, y1, y2, y3 complex128) {
	b0, b1, b2, b3 := a0+a1, a0-a1, a2+a3, mulNegI(a2-a3)
	return b0 + b2, b1 + b3, b0 - b2, b1 - b3
}

// radix4 combines four length-q transforms x0..x3 (consecutive quarters of
// one block) into the block's length-4q transform, in place: with
// (t1, t2, t3) = (W²ʲ·x1, Wʲ·x2, W³ʲ·x3), quarter 0 gets x0+t1+t2+t3,
// quarter 2 x0+t1−t2−t3, and quarters 1 and 3 (x0−t1) ∓ i(t2−t3).
// Its AVX twin radix4AVX runs a whole pass, bit for bit this loop's result.
func radix4(x0, x1, x2, x3 []complex128, tw []twiddle3) {
	x1, x2, x3, tw = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)], tw[:len(x0)]
	for j := range x0 {
		w := &tw[j]
		t1, t2, t3 := w.w2*x1[j], w.w1*x2[j], w.w3*x3[j]
		c0, c1 := x0[j]+t1, x0[j]-t1
		c2, c3 := t2+t3, mulNegI(t2-t3)
		x0[j], x2[j] = c0+c2, c0-c2
		x1[j], x3[j] = c1+c3, c1-c3
	}
}

// radix4DIF splits one natural-order block of 4q into the four length-q
// inverse transforms radix4 combines, in place: from quarters Q0..Q3 and
// the conjugate twiddles W̄, quarter 0 gets (Q0+Q2)+(Q1+Q3), quarter 1
// W̄²ʲ·((Q0+Q2)−(Q1+Q3)), quarters 2 and 3 W̄ʲ and W̄³ʲ times
// (Q0−Q2) ± i(Q1−Q3). Its AVX twin is radix4DIFAVX, bit for bit.
func radix4DIF(x0, x1, x2, x3 []complex128, tw []twiddle3) {
	x1, x2, x3, tw = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)], tw[:len(x0)]
	for j := range x0 {
		w := &tw[j]
		s02, d02 := x0[j]+x2[j], x0[j]-x2[j]
		s13, d13 := x1[j]+x3[j], mulNegI(x1[j]-x3[j])
		x0[j], x1[j] = s02+s13, w.w2*(s02-s13)
		x2[j], x3[j] = w.w1*(d02-d13), w.w3*(d02+d13)
	}
}

func scaled(c complex128, s float64) complex128 { return complex(real(c)*s, imag(c)*s) }

// mulNegI returns −i·c.
func mulNegI(c complex128) complex128 { return complex(imag(c), -real(c)) }

// twiddle3 is one butterfly's twiddles, W = e^{∓2πi/4q}: W^j, W^2j, W^3j.
type twiddle3 struct{ w1, w2, w3 complex128 }

// twiddleTable lays the radix-4 passes' twiddles end to end in the order the
// forward passes read them: for q = firstRadix(n), 4q, … < n, the q triples
// of the pass that builds blocks of 4q. sign is −1 for the forward table,
// +1 for the pre-conjugated inverse one.
func twiddleTable(n int, sign float64) []twiddle3 {
	var tw []twiddle3
	for q := firstRadix(n); q < n; q <<= 2 {
		for j := 0; j < q; j++ {
			var t [3]complex128
			for m := range t {
				s, c := math.Sincos(sign * 2 * math.Pi * float64((m+1)*j) / float64(4*q))
				t[m] = complex(c, s)
			}
			tw = append(tw, twiddle3{t[0], t[1], t[2]})
		}
	}
	return tw
}

// twiddlePair is the twiddles of butterflies j and j+1 as the AVX passes
// read them: for W^j, W^2j and W^3j in turn, the real parts of both, each
// twice, then the imaginary parts.
type twiddlePair [3][2][4]float64

func pairTwiddles(tw []twiddle3) []twiddlePair {
	pt := make([]twiddlePair, len(tw)/2)
	for i := range pt {
		for k := 0; k < 2; k++ {
			t := tw[2*i+k]
			for m, w := range [3]complex128{t.w1, t.w2, t.w3} {
				pt[i][m][0][2*k], pt[i][m][0][2*k+1] = real(w), real(w)
				pt[i][m][1][2*k], pt[i][m][1][2*k+1] = imag(w), imag(w)
			}
		}
	}
	return pt
}

func bitRevPerm(n int) []int32 {
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	return perm
}

// swapPairs lists each 2-cycle (i, perm[i]), i < perm[i], of the bit
// reversal as consecutive entries.
func swapPairs(perm []int32) []int32 {
	var sw []int32
	for i, j := range perm {
		if int(j) > i {
			sw = append(sw, int32(i), j)
		}
	}
	return sw
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
	// The gather carries the forward transform's reorder, the scatter the
	// inverse's.
	for i, j := range p.perm {
		if inverse {
			j = int32(i)
		}
		s[i] = data[off+int(j)*stride]
	}
	p.kernel(s, inverse)
	for i, j := range p.perm {
		if !inverse {
			j = int32(i)
		}
		data[off+int(j)*stride] = s[i]
	}
	return nil
}
