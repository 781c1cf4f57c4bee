package conv

import (
	"errors"
	"math"
	"testing"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// TestLocalHalfSpectrumEdgeShapes: the half-spectrum pipeline against the
// dense full-spectrum baseline on the shapes where its special cases live —
// odd k leaves a stage-A row unpaired, n = 2 leaves a short stage-B tile,
// k = n makes every clear empty, n = 2 has nothing but DC and Nyquist —
// with the box pushed against the upper faces.
func TestLocalHalfSpectrumEdgeShapes(t *testing.T) {
	kernels := []green.Kernel{green.Gaussian{Sigma: 0.9}, green.Yukawa{Kappa: 0.6}}
	for _, sh := range [][2]int{{2, 1}, {2, 2}, {4, 1}, {8, 5}, {8, 8}, {16, 3}, {32, 7}} {
		n, k := sh[0], sh[1]
		dim := grid.Cube(n)
		tree, err := sample.Uniform{Rate: 1, CellSize: min(8, n)}.Tree(dim)
		if err != nil {
			t.Fatal(err)
		}
		for _, lo := range []grid.Point{{n - k, n - k, n - k}, {(n - k + 1) / 2, n - k, (n - k) / 3}} {
			sub := grid.CubeAt(lo, k)
			subField := randSub(k, int64(n+k))
			for ki, kernel := range kernels {
				want, err := BaselineSubdomain(dim, sub, subField, kernel, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, cfg := range []Config{{}, {Workers: 2}, {Workers: 1}} {
					local, err := NewLocal(dim, sub, tree, KernelPointwise(dim, kernel), cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := local.Run(subField)
					if err != nil {
						t.Fatal(err)
					}
					dense, err := got.Reconstruct()
					if err != nil {
						t.Fatal(err)
					}
					if r, _ := grid.RelL2(dense, want); !(r <= 1e-10) {
						t.Errorf("n %d k %d at %v kernel %d cfg %+v: relL2 = %g", n, k, lo, ki, cfg, r)
					}
				}
			}
		}
	}
}

// gammaLike is a six-component callback that couples the lines the way
// MASSIF's does: Γ̂ applied to the real and imaginary parts separately.
func gammaLike(dim grid.Dim3) Pointwise {
	return gammaWith(green.Gamma{Lambda0: 1.2, Mu0: 0.8}.ApplyAt, dim)
}

func gammaWith(apply func(d grid.Dim3, kx, ky, kz int, s grid.SymTensor) grid.SymTensor, dim grid.Dim3) Pointwise {
	return func(kx, ky0 int, tile [][]complex128) {
		for kz := range dim.Nz {
			for j := range min(fft.Tile, dim.Ny-ky0) {
				i := fft.Tile*kz + j
				var re, im grid.SymTensor
				for v, t := range tile {
					re[v], im[v] = real(t[i]), imag(t[i])
				}
				gre := apply(dim, kx, ky0+j, kz, re)
				gim := apply(dim, kx, ky0+j, kz, im)
				for v, t := range tile {
					t[i] = complex(gre[v], gim[v])
				}
			}
		}
	}
}

// TestLocalDeterministicAcrossWorkersAndBatch: the worker count decides who
// transforms a kx slice and with which block (the batch of slices one block
// serves), never a bit of any sample —
// for the scalar pipeline and for six coupled components, at an even k and
// at an odd one (an unpaired stage-A row, a short last stage-C pair), on
// boxes whose sampling shells wrap the torus.
func TestLocalDeterministicAcrossWorkersAndBatch(t *testing.T) {
	const n = 32
	dim := grid.Cube(n)
	for _, sub := range []grid.Box{grid.CubeAt(grid.Point{5, 19, 24}, 8), grid.CubeAt(grid.Point{25, 0, 13}, 7)} {
		k := sub.Size()[0]
		tree, err := sample.DefaultPolicy(sub, 8).Tree(dim)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			comps int
			pw    Pointwise
		}{
			{1, KernelPointwise(dim, green.Poisson{})},
			{grid.NumVoigt, gammaLike(dim)},
		} {
			in := make([]*grid.Field, tc.comps)
			for c := range in {
				in[c] = randSub(k, int64(40+c))
			}
			var ref []*sample.Compressed
			for _, workers := range []int{1, 2, 3, 5} {
				ps, err := NewPlanSet(dim, workers)
				if err != nil {
					t.Fatal(err)
				}
				l, err := ps.NewLocalComponents(sub, tree, tc.comps, tc.pw, Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				outs := make([]*sample.Compressed, tc.comps)
				if _, err := l.RunComponents(in, outs); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = outs
					continue
				}
				for c := range outs {
					for i, want := range ref[c].Samples {
						if math.Float64bits(outs[c].Samples[i]) != math.Float64bits(want) {
							t.Fatalf("%v C=%d workers %d: component %d sample %d is %v, want %v",
								sub, tc.comps, workers, c, i, outs[c].Samples[i], want)
						}
					}
				}
			}
		}
	}
}

// oddHat is real but not even in ξ: its convolution kernel is complex in
// space, which a half-spectrum pipeline cannot represent.
type oddHat struct{}

func (oddHat) Hat(_ grid.Dim3, kx, ky, kz int) float64 { return float64(kx + 2*ky + 3*kz) }
func (oddHat) Name() string                            { return "odd" }

// TestHermitianProbe: a callback that breaks the symmetry the pipeline
// rebuilds the other half spectrum from is refused at construction with a
// matchable error; everything green ships is accepted on every grid,
// n = 2 (all DC and Nyquist) included.
func TestHermitianProbe(t *testing.T) {
	kernels := []green.Kernel{
		green.Delta{}, green.Gaussian{Sigma: 1.3}, green.Poisson{}, green.Yukawa{Kappa: 0.5},
		green.Scaled{K: green.Poisson{}, Factor: -2.5},
		green.Sum{A: green.Gaussian{Sigma: 2}, B: green.Yukawa{Kappa: 1}},
		green.Product{A: green.Poisson{}, B: green.Gaussian{Sigma: 0.7}},
	}
	for _, n := range []int{2, 8, 32} {
		dim := grid.Cube(n)
		sub := grid.CubeAt(grid.Point{0, 0, 0}, 1)
		tree, err := sample.Uniform{Rate: 1, CellSize: min(8, n)}.Tree(dim)
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range kernels {
			if _, err := NewLocal(dim, sub, tree, KernelPointwise(dim, kernel), Config{Workers: 1}); err != nil {
				t.Errorf("n %d: %s refused: %v", n, kernel.Name(), err)
			}
		}
		ps, err := NewPlanSet(dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ps.NewLocalComponents(sub, tree, grid.NumVoigt, gammaLike(dim), Config{Workers: 1}); err != nil {
			t.Errorf("n %d: Γ̂ refused: %v", n, err)
		}
		if n == 2 {
			continue // every index of a 2-grid is its own negation: any real Hat is Hermitian
		}
		_, err = NewLocal(dim, sub, tree, KernelPointwise(dim, oddHat{}), Config{Workers: 1})
		if !errors.Is(err, ErrNotHermitian) {
			t.Errorf("n %d: odd spectrum gave %v, want ErrNotHermitian", n, err)
		}
		// Imaginary and even is just as wrong as real and odd.
		imagEven := func(kx, ky0 int, tile [][]complex128) {
			for _, t := range tile {
				for i := range t {
					t[i] *= 1i
				}
			}
		}
		if _, err := NewLocal(dim, sub, tree, imagEven, Config{Workers: 1}); !errors.Is(err, ErrNotHermitian) {
			t.Errorf("n %d: imaginary spectrum gave %v, want ErrNotHermitian", n, err)
		}
		// Γ̂ with its Nyquist modes left in: the partner index of (N/2, 1)
		// is (N/2, −1), a different direction, and only that pair shows it.
		gamma := green.Gamma{Lambda0: 1.2, Mu0: 0.8}
		rawNyquist := gammaWith(func(d grid.Dim3, kx, ky, kz int, s grid.SymTensor) grid.SymTensor {
			return gamma.Apply([3]float64{float64(green.Freq(n, kx)), float64(green.Freq(n, ky)), float64(green.Freq(n, kz))}, s)
		}, dim)
		if _, err := ps.NewLocalComponents(sub, tree, grid.NumVoigt, rawNyquist, Config{Workers: 1}); !errors.Is(err, ErrNotHermitian) {
			t.Errorf("n %d: Γ̂ with Nyquist modes gave %v, want ErrNotHermitian", n, err)
		}
	}
}
