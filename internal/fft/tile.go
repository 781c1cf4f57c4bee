package fft

import "fmt"

// Tile is how many pencils a tile transform carries side by side. A tile
// of a length-n plan is n rows of Tile values, row i holding the pencils'
// values at position i, pencil j at t[Tile·i+j]: a row is four complex128,
// 64 bytes, one cache line and one AVX-512 register.
const Tile = 4

// Rows places the rows of a tile in a caller's buffer: row i lies at
// buffer offset at[i] (Tile values from there), or nowhere where at[i] < 0.
// Plan.Rows builds it and checks it once, so a tile transform checks only
// the buffer's length.
type Rows struct {
	at   []int32 // per position, the row's offset or −1
	live []int32 // the positions whose row is in the buffer, ascending
	end  int     // one past the last buffer element a row holds
}

// Rows returns the row map at for tiles of this plan: at holds one offset
// per position, −1 for a row that is not in the buffer. It is copied.
func (p *Plan) Rows(at []int32) (Rows, error) {
	if len(at) != p.n {
		return Rows{}, fmt.Errorf("fft: %d row offsets for a plan of %d", len(at), p.n)
	}
	r := Rows{at: make([]int32, p.n)}
	for i, o := range at {
		if o < 0 {
			r.at[i] = -1
			continue
		}
		r.at[i] = o
		r.live = append(r.live, int32(i))
		r.end = max(r.end, int(o)+Tile)
	}
	return r, nil
}

// TileForward is ForwardFromPerm on the Tile pencils of a tile: it reads
// row i of the input, the pencils' values at Perm position i, from src
// through from, an absent row being zero, and leaves their forward
// transforms in t in natural order, t[Tile·k+j] being pencil j at
// frequency k. Every output bit is ForwardFromPerm's on each pencil's line.
// scratch (at least Tile·N values) is used where no twin runs (see
// tileTwin).
func (p *Plan) TileForward(t, src []complex128, from Rows, scratch []complex128) error {
	if err := p.checkTile(t, src, from, scratch); err != nil {
		return err
	}
	r := firstRadix(p.n)
	switch p.tileTwin() {
	case tileAVX512:
		if r == 4 {
			tileFirst4AVX512(t, src, from.at)
		} else {
			tileFirst8AVX512(t, src, from.at)
		}
		for o, q := 0, r; q < p.n; o, q = o+q, q<<2 {
			tileRadix4AVX512(t, p.twTile[o:o+q])
		}
	case tileAVX:
		if r == 4 {
			tileFirst4AVX(t, src, from.at)
		} else {
			tileFirst8AVX(t, src, from.at)
		}
		for o, q := 0, r; q < p.n; o, q = o+q, q<<2 {
			tileRadix4AVX(t, p.twTile[o:o+q])
		}
	default:
		p.linesForward(t, src, from, scratch)
	}
	return nil
}

// TileInverse is Inverse on the Tile pencils of t without its last
// reorder, the way back from TileForward: output row i, the pencils' values
// at Perm position i (Inverse's element Perm()[i]), goes to dst through to,
// and a row to does not place is dropped. t is overwritten. Every output
// bit is Inverse's on each pencil's line.
func (p *Plan) TileInverse(t, dst []complex128, to Rows, scratch []complex128) error {
	if err := p.checkTile(t, dst, to, scratch); err != nil {
		return err
	}
	r, s := firstRadix(p.n), 1/float64(p.n)
	switch p.tileTwin() {
	case tileAVX512:
		for q := p.n / 4; q >= r; q >>= 2 {
			o := (q - r) / 3
			tileRadix4DIFAVX512(t, p.twInvTile[o:o+q])
		}
		if r == 4 {
			tileLast4AVX512(t, dst, to.at, s)
		} else {
			tileLast8AVX512(t, dst, to.at, s)
		}
	case tileAVX:
		for q := p.n / 4; q >= r; q >>= 2 {
			o := (q - r) / 3
			tileRadix4DIFAVX(t, p.twInvTile[o:o+q])
		}
		if r == 4 {
			tileLast4AVX(t, dst, to.at, s)
		} else {
			tileLast8AVX(t, dst, to.at, s)
		}
	default:
		p.linesInverse(t, dst, to, scratch)
	}
	return nil
}

// The ways a tile can run: the line path, the AVX twin, the AVX-512 twin.
const (
	tileByLines = iota
	tileAVX
	tileAVX512
)

// tileLines sends every tile through the line path whatever the CPU has.
// Only tests set it, to hold the twins to that path on the line kernels
// the CPU runs.
var tileLines = false

// tileTwin is the way this plan's tiles run: a power of two of at least 4
// runs as the AVX-512 twin where the CPU has it and as the AVX twin where
// it has AVX; anything else takes the line path (linesForward,
// linesInverse).
func (p *Plan) tileTwin() int {
	switch {
	case tileLines || !useAVX || !p.pow2 || p.n < 4:
		return tileByLines
	case useAVX512:
		return tileAVX512
	}
	return tileAVX
}

func (p *Plan) checkTile(t, buf []complex128, rows Rows, scratch []complex128) error {
	switch {
	case len(t) != Tile*p.n:
		return fmt.Errorf("fft: tile of %d values for a plan of %d", len(t), p.n)
	case len(rows.at) != p.n:
		return fmt.Errorf("fft: row map of %d rows for a plan of %d", len(rows.at), p.n)
	case len(buf) < rows.end:
		return fmt.Errorf("fft: row buffer of %d values, rows reach %d", len(buf), rows.end)
	case len(scratch) < Tile*p.n:
		return fmt.Errorf("fft: scratch length %d < %d", len(scratch), Tile*p.n)
	}
	return nil
}

// linesForward is TileForward's line path: the pencils go into Tile
// cleared lines of scratch, the rows from places walked in one pass, each
// line runs through the line kernel, and one pass interleaves them into t.
func (p *Plan) linesForward(t, src []complex128, from Rows, scratch []complex128) {
	n := p.n
	s := scratch[:Tile*n]
	clear(s)
	l0, l1, l2, l3 := s[:n], s[n:2*n], s[2*n:3*n], s[3*n:]
	for _, i := range from.live {
		r := (*[Tile]complex128)(src[from.at[i]:])
		l0[i], l1[i], l2[i], l3[i] = r[0], r[1], r[2], r[3]
	}
	p.kernel(l0, false)
	p.kernel(l1, false)
	p.kernel(l2, false)
	p.kernel(l3, false)
	t = t[:Tile*n]
	for i := range l0 {
		r := (*[Tile]complex128)(t[Tile*i:])
		r[0], r[1], r[2], r[3] = l0[i], l1[i], l2[i], l3[i]
	}
}

// linesInverse is TileInverse's line path, linesForward's way back: one
// pass splits t into Tile lines of scratch, each runs through the inverse
// line kernel, and the rows to places are stored in one pass.
func (p *Plan) linesInverse(t, dst []complex128, to Rows, scratch []complex128) {
	n := p.n
	s := scratch[:Tile*n]
	l0, l1, l2, l3 := s[:n], s[n:2*n], s[2*n:3*n], s[3*n:]
	t = t[:Tile*n]
	for i := range l0 {
		r := (*[Tile]complex128)(t[Tile*i:])
		l0[i], l1[i], l2[i], l3[i] = r[0], r[1], r[2], r[3]
	}
	p.kernel(l0, true)
	p.kernel(l1, true)
	p.kernel(l2, true)
	p.kernel(l3, true)
	for _, i := range to.live {
		r := (*[Tile]complex128)(dst[to.at[i]:])
		r[0], r[1], r[2], r[3] = l0[i], l1[i], l2[i], l3[i]
	}
}

// ScaleTile scales both parts of pencil j of every row i of the tile t by
// s[j]·r[i], the product formed first, then the point by it: the multiply
// of a separable kernel, whose (kx, ky) factor is one per pencil and whose
// kz factor is one per row. r must hold at least len(t)/Tile factors. With
// AVX-512 it runs as scaleTileAVX512 and with AVX as scaleTileAVX, each bit
// for bit this loop.
func ScaleTile(t []complex128, s [Tile]float64, r []float64) {
	r = r[:len(t)/Tile]
	if useAVX512 {
		s2 := [2 * Tile]float64{s[0], s[0], s[1], s[1], s[2], s[2], s[3], s[3]}
		scaleTileAVX512(t[:Tile*len(r)], &s2, r)
		return
	}
	if useAVX {
		s2 := [2 * Tile]float64{s[0], s[0], s[1], s[1], s[2], s[2], s[3], s[3]}
		scaleTileAVX(t[:Tile*len(r)], &s2, r)
		return
	}
	for i, f := range r {
		row := t[Tile*i:][:Tile]
		for j, v := range row {
			g := s[j] * f
			row[j] = complex(real(v)*g, imag(v)*g)
		}
	}
}

// tileTwiddle is one butterfly's twiddles as the tile passes read them:
// for W^j, W^2j and W^3j in turn, (wr, wr, −wi, wi). The AVX-512 passes
// broadcast the real part to every lane and the pair (−wi, wi) to every
// complex; the AVX passes broadcast wr and wi.
type tileTwiddle [3][4]float64

func tileTwiddles(tw []twiddle3) []tileTwiddle {
	tt := make([]tileTwiddle, len(tw))
	for i, t := range tw {
		for m, w := range [3]complex128{t.w1, t.w2, t.w3} {
			tt[i][m] = [4]float64{real(w), real(w), -imag(w), imag(w)}
		}
	}
	return tt
}
