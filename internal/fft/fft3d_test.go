package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"lowcomm3d/internal/grid"
)

func randField(d grid.Dim3, seed int64) *grid.ComplexField {
	rng := rand.New(rand.NewSource(seed))
	f := grid.NewComplexField(d)
	for i := range f.Data {
		f.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return f
}

// dft3Direct computes the 3D DFT by definition — O(n⁶), tiny grids only.
func dft3Direct(f *grid.ComplexField) *grid.ComplexField {
	d := f.Dim
	out := grid.NewComplexField(d)
	for kz := 0; kz < d.Nz; kz++ {
		for ky := 0; ky < d.Ny; ky++ {
			for kx := 0; kx < d.Nx; kx++ {
				var sum complex128
				for z := 0; z < d.Nz; z++ {
					for y := 0; y < d.Ny; y++ {
						for x := 0; x < d.Nx; x++ {
							ang := -2 * math.Pi * (float64(kx*x)/float64(d.Nx) +
								float64(ky*y)/float64(d.Ny) +
								float64(kz*z)/float64(d.Nz))
							sum += f.Data[d.Index(x, y, z)] * cmplx.Exp(complex(0, ang))
						}
					}
				}
				out.Data[d.Index(kx, ky, kz)] = sum
			}
		}
	}
	return out
}

func maxFieldDiff(a, b *grid.ComplexField) float64 {
	m := 0.0
	for i := range a.Data {
		if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

func TestPlan3DMatchesDirect(t *testing.T) {
	for _, d := range []grid.Dim3{
		{Nx: 4, Ny: 4, Nz: 4},
		{Nx: 8, Ny: 4, Nz: 2},
		{Nx: 3, Ny: 5, Nz: 4}, // mixed radix: Bluestein on two axes
		{Nx: 6, Ny: 6, Nz: 6},
	} {
		p, err := NewPlan3D(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := randField(d, 42)
		want := dft3Direct(f)
		if err := p.Forward(f); err != nil {
			t.Fatal(err)
		}
		if diff := maxFieldDiff(f, want); diff > 1e-9 {
			t.Errorf("dims %v: max diff %g", d, diff)
		}
	}
}

func TestPlan3DRoundTrip(t *testing.T) {
	for _, d := range []grid.Dim3{{Nx: 8, Ny: 8, Nz: 8}, {Nx: 16, Ny: 8, Nz: 4}, {Nx: 5, Ny: 6, Nz: 7}, {Nx: 32, Ny: 32, Nz: 32}} {
		p, err := NewPlan3D(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := randField(d, 7)
		orig := &grid.ComplexField{Dim: d, Data: slices.Clone(f.Data)}
		if err := p.Forward(f); err != nil {
			t.Fatal(err)
		}
		if err := p.Inverse(f); err != nil {
			t.Fatal(err)
		}
		if diff := maxFieldDiff(f, orig); diff > 1e-10 {
			t.Errorf("dims %v: round-trip diff %g", d, diff)
		}
	}
}

func TestPlan3DSeparability(t *testing.T) {
	// A separable product f(x,y,z) = a(x)b(y)c(z) transforms to
	// Â(kx)·B̂(ky)·Ĉ(kz).
	d := grid.Dim3{Nx: 8, Ny: 8, Nz: 8}
	a := randComplex(8, 1)
	bb := randComplex(8, 2)
	c := randComplex(8, 3)
	f := grid.NewComplexField(d)
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				f.Data[d.Index(x, y, z)] = a[x] * bb[y] * c[z]
			}
		}
	}
	p1 := mustPlan(8)
	fa := make([]complex128, 8)
	fb := make([]complex128, 8)
	fc := make([]complex128, 8)
	if err := p1.Forward(fa, a); err != nil {
		t.Fatal(err)
	}
	if err := p1.Forward(fb, bb); err != nil {
		t.Fatal(err)
	}
	if err := p1.Forward(fc, c); err != nil {
		t.Fatal(err)
	}
	p3, _ := NewPlan3D(d, 0)
	if err := p3.Forward(f); err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				want := fa[x] * fb[y] * fc[z]
				if cmplx.Abs(f.Data[d.Index(x, y, z)]-want) > 1e-9 {
					t.Fatalf("separability violated at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestPlan3DDimMismatch(t *testing.T) {
	p, _ := NewPlan3D(grid.Dim3{Nx: 4, Ny: 4, Nz: 4}, 1)
	f := grid.NewComplexField(grid.Dim3{Nx: 8, Ny: 4, Nz: 4})
	if err := p.Forward(f); err == nil {
		t.Error("dim mismatch should fail")
	}
}

func TestPlan3DWorkerCountsAgree(t *testing.T) {
	d := grid.Dim3{Nx: 16, Ny: 16, Nz: 16}
	f1 := randField(d, 12)
	f4 := &grid.ComplexField{Dim: d, Data: slices.Clone(f1.Data)}
	p1, _ := NewPlan3D(d, 1)
	p4, _ := NewPlan3D(d, 4)
	if err := p1.Forward(f1); err != nil {
		t.Fatal(err)
	}
	if err := p4.Forward(f4); err != nil {
		t.Fatal(err)
	}
	if diff := maxFieldDiff(f1, f4); diff > 1e-12 {
		t.Errorf("parallel execution changed result by %g", diff)
	}
}

func TestPlan2DMatches3DPlane(t *testing.T) {
	// A 2D transform of a plane must equal the (x,y) part of a 3D
	// transform with Nz=1.
	nx, ny := 8, 16
	p2, err := NewPlan2D(nx, ny, 0)
	if err != nil {
		t.Fatal(err)
	}
	plane := randComplex(nx*ny, 21)
	want := grid.NewComplexField(grid.Dim3{Nx: nx, Ny: ny, Nz: 1})
	copy(want.Data, plane)
	p3, _ := NewPlan3D(grid.Dim3{Nx: nx, Ny: ny, Nz: 1}, 0)
	if err := p3.Forward(want); err != nil {
		t.Fatal(err)
	}
	if err := p2.ForwardPlane(plane); err != nil {
		t.Fatal(err)
	}
	for i := range plane {
		if cmplx.Abs(plane[i]-want.Data[i]) > 1e-10 {
			t.Fatalf("plane mismatch at %d", i)
		}
	}
}

func TestPlan2DErrors(t *testing.T) {
	if _, err := NewPlan2D(0, 4, 1); err == nil {
		t.Error("zero nx should fail")
	}
	p, _ := NewPlan2D(4, 4, 1)
	if err := p.ForwardPlane(make([]complex128, 3)); err == nil {
		t.Error("short plane should fail")
	}
}

func TestParallelFor(t *testing.T) {
	n := 1000
	hits := make([]int32, n)
	ParallelFor(n, 8, func(w, i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	// Degenerate cases.
	var count atomic.Int32 // auto workers run f concurrently
	ParallelFor(3, 0, func(w, i int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("auto workers visited %d", count.Load())
	}
	ParallelFor(0, 4, func(w, i int) { t.Error("must not be called") })
}

func BenchmarkPlan3DForward(b *testing.B) {
	for _, n := range []int{32, 64} {
		d := grid.Cube(n)
		p, _ := NewPlan3D(d, 0)
		f := randField(d, 5)
		b.Run(d.String(), func(b *testing.B) {
			b.SetBytes(int64(16 * d.Len()))
			for i := 0; i < b.N; i++ {
				if err := p.Forward(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
