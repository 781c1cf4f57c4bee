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
	at  []int32 // per position, the row's offset or −1
	end int     // one past the last buffer element a row holds
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
		r.end = max(r.end, int(o)+Tile)
	}
	return r, nil
}

// TileForward is ForwardFromPerm on the Tile pencils of a tile: it reads
// row i of the input, the pencils' values at Perm position i, from src
// through from, an absent row being zero, and leaves their forward
// transforms in t in natural order, t[Tile·k+j] being pencil j at
// frequency k. Every output bit is ForwardFromPerm's on each pencil's line.
// scratch (at least N values) is used where no twin runs (see tileTwin).
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
		line := scratch[:p.n]
		for j := 0; j < Tile; j++ {
			for i, o := range from.at {
				line[i] = 0
				if o >= 0 {
					line[i] = src[int(o)+j]
				}
			}
			p.kernel(line, false)
			for i, v := range line {
				t[Tile*i+j] = v
			}
		}
	}
	return nil
}

// TileInverse is InverseToPerm on the Tile pencils of t, the way back from
// TileForward: output row i, the pencils' values at Perm position i, goes
// to dst through to, and a row to does not place is dropped. t is
// overwritten. Every output bit is InverseToPerm's on each pencil's line.
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
		line := scratch[:p.n]
		for j := 0; j < Tile; j++ {
			for i := range line {
				line[i] = t[Tile*i+j]
			}
			p.kernel(line, true)
			for i, o := range to.at {
				if o >= 0 {
					dst[int(o)+j] = line[i]
				}
			}
		}
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
// it has AVX; anything else takes the line path, which gathers each pencil
// into the scratch line and runs it through the line kernel.
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
	case len(scratch) < p.n:
		return fmt.Errorf("fft: scratch length %d < %d", len(scratch), p.n)
	}
	return nil
}

// ScaleTile scales both parts of pencil j of every row i of the tile t by
// s[j]·r[i], the product formed first, then the point by it: the multiply
// of a separable kernel, whose (kx, ky) factor is one per pencil and whose
// kz factor is one per row. r must hold at least len(t)/Tile factors. With
// AVX it runs as scaleTileAVX, bit for bit this loop.
func ScaleTile(t []complex128, s [Tile]float64, r []float64) {
	r = r[:len(t)/Tile]
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
