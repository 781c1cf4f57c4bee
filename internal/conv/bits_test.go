package conv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// samplesHash is the first 8 bytes, in hex, of SHA-256 over the samples'
// little-endian Float64bits, concatenated in component order.
func samplesHash(outs []*sample.Compressed) string {
	h := sha256.New()
	var b [8]byte
	for _, o := range outs {
		for _, v := range o.Samples {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestLocalPinnedBits pins conv.Local's output bits: the samples of fixed
// runs, hashed, against values recorded when the pipeline was last
// changed. The input is randSub(k, 7) under the Gaussian σ = 2 kernel, with
// the default sampling policy at the given far rate. A change to the
// pipeline or to the fft kernel that claims to keep every output bit must
// keep these. It runs on amd64 only: elsewhere gc may fuse the Go loops'
// multiply-adds, and the bits may differ.
func TestLocalPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits are pinned on amd64 only")
	}
	kernel := green.Gaussian{Sigma: 2}
	for _, c := range []struct {
		n, k, far int
		lo        grid.Point
		workers   []int
		want      string
	}{
		{128, 32, 16, grid.Point{48, 48, 48}, []int{1, 2}, "7ebb8ad7575d9d33"},
		{64, 16, 16, grid.Point{0, 0, 0}, []int{2}, "e2e7baa41449b765"},
		{64, 16, 16, grid.Point{24, 24, 24}, []int{1}, "061eae75c50d8740"},
		{64, 16, 16, grid.Point{48, 5, 33}, []int{1}, "181341a6ab863242"},
		{32, 8, 8, grid.Point{12, 12, 12}, []int{1}, "1cbf1d08f73c1823"},
	} {
		dim := grid.Cube(c.n)
		sub := grid.CubeAt(c.lo, c.k)
		tree, err := sample.DefaultPolicy(sub, c.far).Tree(dim)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range c.workers {
			l, err := NewLocal(dim, sub, tree, KernelPointwise(dim, kernel), Config{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := l.Run(randSub(c.k, 7))
			if err != nil {
				t.Fatal(err)
			}
			if got := samplesHash([]*sample.Compressed{out}); got != c.want {
				t.Errorf("%d³/k%d at %v, far %d, Workers %d: samples hash %s, want %s",
					c.n, c.k, c.lo, c.far, w, got, c.want)
			}
		}
	}
}

// TestLocalComponentsPinnedBits pins a six-component run the same way:
// 32³/k7 at (25, 3, 9), far 8, Workers 3, component c's input
// randSub(7, 7+c). The callback applies the Gaussian σ = 2 to every line,
// then mixes the lines with real weights, line c gaining (c+1)/8 of line
// c−1 (highest first, so each adds the unmixed line), as a tensor kernel
// couples its components.
func TestLocalComponentsPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits are pinned on amd64 only")
	}
	const n, k, comps, want = 32, 7, 6, "68ddaee6ecee9999"
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{25, 3, 9}, k)
	tree, err := sample.DefaultPolicy(sub, 8).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	gauss := KernelPointwise(dim, green.Gaussian{Sigma: 2})
	pw := func(kx, ky int, spec [][]complex128) {
		gauss(kx, ky, spec)
		for c := len(spec) - 1; c > 0; c-- {
			w := complex(float64(c+1)/8, 0)
			for kz, v := range spec[c-1] {
				spec[c][kz] += w * v
			}
		}
	}
	ps, err := NewPlanSet(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ps.NewLocalComponents(sub, tree, comps, pw, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]*grid.Field, comps)
	for c := range in {
		in[c] = randSub(k, 7+int64(c))
	}
	outs := make([]*sample.Compressed, comps)
	if _, err := l.RunComponents(in, outs); err != nil {
		t.Fatal(err)
	}
	if got := samplesHash(outs); got != want {
		t.Errorf("samples hash %s, want %s", got, want)
	}
}

// fieldHash is samplesHash for a dense field: the first 8 bytes, in hex, of
// SHA-256 over its values' little-endian Float64bits.
func fieldHash(f *grid.Field) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range f.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestDecomposedPinnedBits pins the accumulated field of Decomposed.Run —
// every box's pipeline and tree, and the block-summed accumulation — the
// way TestLocalPinnedBits pins one pipeline: randField(N³, 11) under the
// Gaussian σ = 2 kernel, two boxes at a time on one worker each.
func TestDecomposedPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits are pinned on amd64 only")
	}
	for _, c := range []struct {
		n, k, far int
		want      string
	}{
		{64, 16, 16, "79adf7586538617e"},
		{32, 8, 8, "90c0fd0ff0f2140c"},
	} {
		dc := Decomposed{Kernel: green.Gaussian{Sigma: 2}, SubSize: c.k, FarRate: c.far, Cfg: Config{Workers: 1}, Parallel: 2}
		out, _, err := dc.Run(randField(grid.Cube(c.n), 11))
		if err != nil {
			t.Fatal(err)
		}
		if got := fieldHash(out); got != c.want {
			t.Errorf("%d³/k%d, far %d: field hash %s, want %s", c.n, c.k, c.far, got, c.want)
		}
	}
}
