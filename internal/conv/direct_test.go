package conv

import (
	"fmt"
	"testing"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

// KernelSpatial materializes the spatial form of a frequency-domain kernel
// (inverse FFT of its spectrum) — the g(x) the input is convolved with.
func KernelSpatial(d grid.Dim3, k green.Kernel, workers int) (*grid.Field, error) {
	plan, err := fft.NewPlan3D(d, workers)
	if err != nil {
		return nil, err
	}
	c := grid.NewComplexField(d)
	i := 0
	for kz := 0; kz < d.Nz; kz++ {
		for ky := 0; ky < d.Ny; ky++ {
			for kx := 0; kx < d.Nx; kx++ {
				c.Data[i] = complex(k.Hat(d, kx, ky, kz), 0)
				i++
			}
		}
	}
	if err := plan.Inverse(c); err != nil {
		return nil, err
	}
	return c.Real(), nil
}

// Direct computes the circular convolution in the space domain with the
// kernel truncated to Chebyshev radius R around the origin:
//
//	out(x) = Σ_{|δ|∞ ≤ R} g(δ) · f(x − δ)   (periodic indices)
//
// This is the O(N³·(2R+1)³) summation the FFT replaces (paper §1: "the FFT
// reduces the complexity of computation from O(N²) to O(N log N)"). It is
// exact when the kernel's support fits inside the radius, which the
// rapidly-decaying Green's-function kernels of the paper satisfy — making
// Direct both an FFT-free correctness cross-check and the slow side of the
// complexity-crossover benchmark.
func Direct(f *grid.Field, kernel *grid.Field, radius, workers int) (*grid.Field, error) {
	d := f.Dim
	if kernel.Dim != d {
		return nil, fmt.Errorf("conv: kernel dims %v != field dims %v", kernel.Dim, d)
	}
	if radius < 0 || 2*radius+1 > d.Nx || 2*radius+1 > d.Ny || 2*radius+1 > d.Nz {
		return nil, fmt.Errorf("conv: radius %d out of range for %v", radius, d)
	}
	// Gather the truncated stencil once: offsets and weights.
	type tap struct {
		dx, dy, dz int
		w          float64
	}
	taps := make([]tap, 0, (2*radius+1)*(2*radius+1)*(2*radius+1))
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	for dz := -radius; dz <= radius; dz++ {
		for dy := -radius; dy <= radius; dy++ {
			for dx := -radius; dx <= radius; dx++ {
				w := kernel.At(wrap(dx, d.Nx), wrap(dy, d.Ny), wrap(dz, d.Nz))
				if w != 0 {
					taps = append(taps, tap{dx, dy, dz, w})
				}
			}
		}
	}
	out := grid.NewField(d)
	fft.ParallelFor(d.Nz, fft.Workers(workers), func(_, z int) {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				sum := 0.0
				for _, t := range taps {
					sum += t.w * f.At(wrap(x-t.dx, d.Nx), wrap(y-t.dy, d.Ny), wrap(z-t.dz, d.Nz))
				}
				out.Set(x, y, z, sum)
			}
		}
	})
	return out, nil
}

func TestDirectMatchesBaselineForCompactKernel(t *testing.T) {
	// σ=1.5 keeps the spectrum at the Nyquist frequency down to ~1.5e-5
	// (a σ=1 kernel is not band-limited on the grid and its spatial form
	// rings at the 1e-3 level — measured and excluded deliberately), so a
	// radius-9 truncation agrees with the full FFT convolution to ~1e-4.
	if testing.Short() {
		t.Skip("multi-second direct summation; skipped in -short")
	}
	d := grid.Cube(32)
	f := randSub(32, 31)
	kernel := green.Gaussian{Sigma: 1.5}
	spatial, err := KernelSpatial(d, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Baseline(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Direct(f, spatial, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(got, want); r > 1e-4 {
		t.Errorf("direct vs FFT error %g", r)
	}
}

func TestDirectDeltaRadiusZero(t *testing.T) {
	d := grid.Cube(8)
	f := randSub(8, 5)
	spatial, err := KernelSpatial(d, green.Delta{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Direct(f, spatial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(got, f); r > 1e-12 {
		t.Errorf("delta radius-0 error %g", r)
	}
}

func TestDirectTruncationErrorGrowsWithSmallerRadius(t *testing.T) {
	d := grid.Cube(16)
	f := randSub(16, 2)
	kernel := green.Gaussian{Sigma: 1.5}
	spatial, err := KernelSpatial(d, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Baseline(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, radius := range []int{7, 4, 2, 1} {
		got, err := Direct(f, spatial, radius, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := grid.RelL2(got, want)
		if prev >= 0 && r < prev {
			t.Errorf("radius %d: error %g should grow as radius shrinks (prev %g)", radius, r, prev)
		}
		prev = r
	}
}

func TestDirectErrors(t *testing.T) {
	f := grid.NewField(grid.Cube(8))
	k := grid.NewField(grid.Cube(16))
	if _, err := Direct(f, k, 1, 0); err == nil {
		t.Error("dim mismatch should fail")
	}
	k8 := grid.NewField(grid.Cube(8))
	if _, err := Direct(f, k8, 5, 0); err == nil {
		t.Error("radius too large should fail")
	}
	if _, err := Direct(f, k8, -1, 0); err == nil {
		t.Error("negative radius should fail")
	}
}

func BenchmarkDirectVsFFTCrossover(b *testing.B) {
	// The paper's §1 motivation: direct summation vs FFT. At small
	// stencil radii direct wins; the FFT takes over as support grows.
	d := grid.Cube(32)
	f := randSub(32, 1)
	kernel := green.Gaussian{Sigma: 1}
	spatial, err := KernelSpatial(d, kernel, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, radius := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("direct/R%d", radius), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Direct(f, spatial, radius, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Baseline(f, kernel, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestBaselineRealMatchesComplex(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		f := randSub(n, int64(n))
		kernel := green.Gaussian{Sigma: 1.5}
		want, err := Baseline(f, kernel, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BaselineReal(f, kernel, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r, _ := grid.RelL2(got, want); r > 1e-12 {
			t.Errorf("n=%d: r2c pipeline differs from complex by %g", n, r)
		}
	}
}

func TestBaselineRealOddFails(t *testing.T) {
	f := grid.NewField(grid.Dim3{Nx: 9, Ny: 8, Nz: 8})
	if _, err := BaselineReal(f, green.Delta{}, 0); err == nil {
		t.Error("odd Nx should fail")
	}
}

func BenchmarkBaselineRealVsComplex(b *testing.B) {
	f := randSub(64, 4)
	kernel := green.Gaussian{Sigma: 2}
	b.Run("complex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Baseline(f, kernel, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("r2c", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BaselineReal(f, kernel, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
