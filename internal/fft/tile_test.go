package fft

import (
	"fmt"
	"math/rand"
	"testing"
)

// tileCase is one tile of test data: the pencils' natural-order lines and
// the buffer and row maps the tile transforms read from and write to. Row
// i of the source buffer sits at a shuffled offset, at an odd stride so
// that the rows share no alignment, and a row is absent from the source or
// dropped from the output where the seed says so.
type tileCase struct {
	x        [Tile][]complex128
	from, to Rows
	bufLen   int
}

func newTileCase(t testing.TB, p *Plan, x [Tile][]complex128, seed int64, absent, dropped float64) tileCase {
	n := p.n
	rng := rand.New(rand.NewSource(seed))
	const stride = Tile + 3
	from, to := make([]int32, n), make([]int32, n)
	for i, r := range rng.Perm(n) {
		from[i] = int32(stride*r + 1)
		if rng.Float64() < absent {
			from[i] = -1
		}
	}
	for i, r := range rng.Perm(n) {
		to[i] = int32(stride*r + 2)
		if rng.Float64() < dropped {
			to[i] = -1
		}
	}
	c := tileCase{x: x, bufLen: stride*n + 2}
	var err error
	if c.from, err = p.Rows(from); err != nil {
		t.Fatal(err)
	}
	if c.to, err = p.Rows(to); err != nil {
		t.Fatal(err)
	}
	return c
}

// src is the source buffer: row i holds the pencils' inputs at element
// Perm()[i], and every other value is a sentinel no transform may read.
func (c tileCase) src(p *Plan) []complex128 {
	buf := make([]complex128, c.bufLen)
	for i := range buf {
		buf[i] = complex(7, -7)
	}
	for i, o := range c.from.at {
		for j := 0; o >= 0 && j < Tile; j++ {
			buf[int(o)+j] = c.x[j][p.Perm()[i]]
		}
	}
	return buf
}

// tile lays the pencils' lines out as a tile.
func (c tileCase) tile() []complex128 {
	n := len(c.x[0])
	t := make([]complex128, Tile*n)
	for j, line := range c.x {
		for i, v := range line {
			t[Tile*i+j] = v
		}
	}
	return t
}

// wantForward is the reference forward: each pencil placed through Perm
// into a cleared line, absent rows left zero, and run through
// ForwardFromPerm on the Go loops.
func (c tileCase) wantForward(p *Plan) []complex128 {
	n := p.n
	want := make([]complex128, Tile*n)
	line := make([]complex128, n)
	for j := range c.x {
		clear(line)
		for i, o := range c.from.at {
			if o >= 0 {
				line[i] = c.x[j][p.Perm()[i]]
			}
		}
		goLoops(func() {
			if err := p.ForwardFromPerm(line); err != nil {
				panic(err)
			}
		})
		for i, v := range line {
			want[Tile*i+j] = v
		}
	}
	return want
}

// wantInverse is the reference inverse of the tile of c's lines: each
// pencil's line through InverseToPerm on the Go loops, position i stored
// where to places it, the rest of the buffer left as it was.
func (c tileCase) wantInverse(p *Plan, buf []complex128) []complex128 {
	want := append([]complex128(nil), buf...)
	for j := range c.x {
		line := append([]complex128(nil), c.x[j]...)
		goLoops(func() {
			if err := p.InverseToPerm(line); err != nil {
				panic(err)
			}
		})
		for i, o := range c.to.at {
			if o >= 0 {
				want[int(o)+j] = line[i]
			}
		}
	}
	return want
}

// checkTile runs the tile transforms of c on p under the current dispatch
// and holds them to the per-line references bit for bit.
func checkTile(t *testing.T, p *Plan, c tileCase, label string) {
	t.Helper()
	n := p.n
	scratch := make([]complex128, Tile*n)
	src := c.src(p)
	srcWas := append([]complex128(nil), src...)
	got := make([]complex128, Tile*n)
	if err := p.TileForward(got, src, c.from, scratch); err != nil {
		t.Fatal(err)
	}
	want := c.wantForward(p)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("n=%d %s: TileForward row %d pencil %d = %v, lines %v", n, label, i/Tile, i%Tile, got[i], want[i])
	}
	if i := firstBitDiff(src, srcWas); i >= 0 {
		t.Fatalf("n=%d %s: TileForward wrote source [%d]", n, label, i)
	}
	dst := make([]complex128, c.bufLen)
	for i := range dst {
		dst[i] = complex(-5, 5)
	}
	wantDst := c.wantInverse(p, dst)
	if err := p.TileInverse(c.tile(), dst, c.to, scratch); err != nil {
		t.Fatal(err)
	}
	if i := firstBitDiff(dst, wantDst); i >= 0 {
		t.Fatalf("n=%d %s: TileInverse buffer [%d] = %v, lines %v", n, label, i, dst[i], wantDst[i])
	}
}

// TestTileMatchesLines holds the tile transforms to ForwardFromPerm and
// InverseToPerm on each pencil's line, bit for bit and the sign of zero
// included, under every dispatch this CPU has (the AVX-512 twin, the AVX
// twin, the line path on the AVX kernels, the Go loops): every power of two up to 2¹⁴, so
// both first-pass radices and every pass size, and one length that is not
// a power of two, on edge values (edgeInput), signed zeros and the
// pipeline's zero-padded lines (boxLine), with a quarter of the source rows
// absent and half of the output rows dropped.
func TestTileMatchesLines(t *testing.T) {
	sizes := []int{1, 2, 96}
	for n := 4; n <= 1<<14; n <<= 1 {
		sizes = append(sizes, n)
	}
	for _, d := range tileDispatches() {
		d.run(func() {
			for _, n := range sizes {
				p := mustPlan(n)
				for k, gen := range []func(seed int64) []complex128{
					func(seed int64) []complex128 { return edgeInput(n, seed, 0.25) },
					func(seed int64) []complex128 { return signedZeros(n, seed) },
					func(seed int64) []complex128 { return boxLine(n, seed) },
				} {
					var x [Tile][]complex128
					for j := range x {
						x[j] = gen(int64(n*Tile + j))
					}
					checkTile(t, p, newTileCase(t, p, x, int64(n+k), 0.25, 0.5), d.name)
				}
			}
		})
		t.Logf("dispatch %s: matches the lines", d.name)
	}
}

// TestTileErrors: the tile transforms refuse a tile, row map, buffer or
// scratch line of the wrong size before touching anything.
func TestTileErrors(t *testing.T) {
	p, q := mustPlan(8), mustPlan(16)
	at := make([]int32, 8)
	for i := range at {
		at[i] = int32(Tile * i)
	}
	rows, err := p.Rows(at)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rows(at[:7]); err == nil {
		t.Error("Rows accepted 7 offsets for a plan of 8")
	}
	qrows, err := q.Rows(make([]int32, 16))
	if err != nil {
		t.Fatal(err)
	}
	tile, buf, scratch := make([]complex128, Tile*8), make([]complex128, Tile*8), make([]complex128, Tile*8)
	for name, err := range map[string]error{
		"short tile":        p.TileForward(tile[1:], buf, rows, scratch),
		"other plan's rows": p.TileForward(tile, buf, qrows, scratch),
		"short buffer":      p.TileInverse(tile, buf[:Tile*8-1], rows, scratch),
		"short scratch":     p.TileInverse(tile, buf, rows, scratch[:Tile*8-1]),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// BenchmarkTile times one tile of the conv.Local z pencils, forward, the
// separable kernel's scale and inverse, at N = 32, 64 and 128 with a box
// of N/4 rows and a kept plane in four: "tile" as dispatched, "avx" on the
// AVX twin and "lines" on the line path.
func BenchmarkTile(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		p := mustPlan(n)
		from, to := make([]int32, n), make([]int32, n)
		for i, z := range p.Perm() {
			from[i], to[i] = -1, -1
			if lo := 3 * n / 8; int(z) >= lo && int(z) < lo+n/4 {
				from[i] = (z - int32(lo)) * int32(n+Tile)
			}
			if z%4 == 0 {
				to[i] = z / 4 * int32(n+Tile)
			}
		}
		fr, err := p.Rows(from)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := p.Rows(to)
		if err != nil {
			b.Fatal(err)
		}
		blk, out := randComplex(n*(n+Tile), 1), make([]complex128, n*(n+Tile))
		tile, scratch, r := make([]complex128, Tile*n), make([]complex128, Tile*n), make([]float64, n)
		for i := range r {
			r[i] = 1
		}
		s := [Tile]float64{1, 1, 1, 1}
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := p.TileForward(tile, blk, fr, scratch); err != nil {
					b.Fatal(err)
				}
				ScaleTile(tile, s, r)
				if err := p.TileInverse(tile, out, tr, scratch); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("n%d/tile", n), run)
		b.Run(fmt.Sprintf("n%d/avx", n), func(b *testing.B) { noAVX512(func() { run(b) }) })
		b.Run(fmt.Sprintf("n%d/lines", n), func(b *testing.B) { lineTiles(func() { run(b) }) })
	}
}
