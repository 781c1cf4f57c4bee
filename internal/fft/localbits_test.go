package fft_test

import (
	"math"
	"math/rand"
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// TestLocalSameBitsUnderEveryDispatch runs conv.Local under every dispatch
// this CPU has (fft.Dispatches: the AVX-512 tile twin, the AVX one, the line
// path, the Go loops) and requires the same samples, bit for bit: one
// component with conv.KernelPointwise, and six coupled by Γ̂, a Hermitian
// callback that is not separable. N = 48 is not a power of two, so its
// tiles take the line path and its lines Bluestein's; N/2+1 and k = 3 are
// no multiples of fft.Tile, so the last kx tile and the last stage-C tile
// carry padding lanes.
func TestLocalSameBitsUnderEveryDispatch(t *testing.T) {
	gauss := green.Gaussian{Sigma: 1.5}
	gamma := green.Gamma{Lambda0: 1.2, Mu0: 0.8}
	for _, n := range []int{32, 48, 64} {
		dim := grid.Cube(n)
		gammaPW := gammaPointwise(dim, gamma)
		for _, k := range []int{3, 8} {
			sub := grid.CubeAt(grid.Point{n/3 + 1, 5, n - k}, k)
			tree := dispatchTree(t, dim, sub)
			for _, tc := range []struct {
				name  string
				comps int
				pw    conv.Pointwise
			}{
				{"gaussian", 1, conv.KernelPointwise(dim, gauss)},
				{"gamma", grid.NumVoigt, gammaPW},
			} {
				in := make([]*grid.Field, tc.comps)
				for c := range in {
					in[c] = randField(k, int64(n*k+c))
				}
				var want [][]float64
				for _, d := range fft.Dispatches() {
					var got [][]float64
					d.Run(func() {
						ps, err := conv.NewPlanSet(dim, 2)
						if err != nil {
							t.Fatal(err)
						}
						l, err := ps.NewLocal(sub, tree, tc.comps, tc.pw, conv.Config{Workers: 2})
						if err != nil {
							t.Fatal(err)
						}
						outs := make([]*sample.Compressed, tc.comps)
						if _, err := l.RunComponents(in, outs); err != nil {
							t.Fatal(err)
						}
						for _, o := range outs {
							got = append(got, o.Samples)
						}
					})
					if want == nil {
						want = got
						continue
					}
					for c := range want {
						for i, v := range want[c] {
							if math.Float64bits(got[c][i]) != math.Float64bits(v) {
								t.Fatalf("N=%d k=%d %s: %s gives component %d sample %d = %v, %s %v",
									n, k, tc.name, d.Name, c, i, got[c][i], fft.Dispatches()[0].Name, v)
							}
						}
					}
				}
			}
		}
	}
	for _, d := range fft.Dispatches() {
		t.Logf("dispatch %s: the same samples", d.Name)
	}
}

// dispatchTree is the sampling tree of box sub: the default policy's where
// the grid is a power of two, and else cells of edge N/3, those the box
// overlaps at rate 1 and the rest at rates 2 to 16.
func dispatchTree(t *testing.T, dim grid.Dim3, sub grid.Box) *octree.Tree {
	n := dim.Nx
	if n&(n-1) == 0 {
		tree, err := sample.DefaultPolicy(sub, 8).Tree(dim)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	e := n / 3
	tree := &octree.Tree{Dim: dim}
	for i := range 27 {
		lo := grid.Point{i % 3 * e, i / 3 % 3 * e, i / 9 * e}
		c := octree.Cell{Box: grid.CubeAt(lo, e), Rate: 1 << (1 + i%4)}
		if c.Box.Overlaps(sub) {
			c.Rate = 1
		}
		tree.Cells = append(tree.Cells, c)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	return tree
}

// gammaPointwise is MASSIF's Γ̂ callback: each pencil (kx0+j, ky) of the
// six Voigt components' tiles contracted with gamma, the real and
// imaginary parts apart.
func gammaPointwise(dim grid.Dim3, gamma green.Gamma) conv.Pointwise {
	return func(kx0, ky int, tile [][]complex128) {
		for kz := range dim.Nz {
			for j := range min(fft.Tile, dim.Nx-kx0) {
				i := fft.Tile*kz + j
				var re, im grid.SymTensor
				for v, t := range tile {
					re[v], im[v] = real(t[i]), imag(t[i])
				}
				gre := gamma.ApplyAt(dim, kx0+j, ky, kz, re)
				gim := gamma.ApplyAt(dim, kx0+j, ky, kz, im)
				for v, t := range tile {
					t[i] = complex(gre[v], gim[v])
				}
			}
		}
	}
}

// randField is a k³ field of standard normal values from seed.
func randField(k int, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	f := grid.NewField(grid.Cube(k))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}
