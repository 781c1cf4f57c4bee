package sample

import (
	"fmt"
	"math"

	"lowcomm3d/internal/grid"
)

// This file implements the error analysis the paper defers to future work
// (§5.3: "error bounds for popularly used interpolation methods derived
// with Taylor's theorem are applicable. Future work will rigorously derive
// error bounds as a function of our design choices N, k and r").
//
// For trilinear interpolation on a cell of stride h, Taylor's theorem with
// a bound M₂ on all second partial derivatives gives the classic pointwise
// bound
//
//	|f(x) − I_h f(x)| ≤ (3/8)·h²·M₂,
//
// (h²/8 per axis, three axes). The bound is evaluated per octree cell with
// the cell's own rate, yielding both an L∞ bound and a volume-weighted L2
// bound over the grid.

// MaxSecondDerivative estimates M₂ = max over the grid and axis pairs of
// |∂²f/∂xᵢ∂xⱼ| via central second differences on the periodic torus.
func MaxSecondDerivative(f *grid.Field) float64 {
	d := f.Dim
	m := 0.0
	idx := func(x, y, z int) float64 {
		return f.At(((x%d.Nx)+d.Nx)%d.Nx, ((y%d.Ny)+d.Ny)%d.Ny, ((z%d.Nz)+d.Nz)%d.Nz)
	}
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				c := idx(x, y, z)
				// Pure second differences along each axis.
				dxx := idx(x+1, y, z) - 2*c + idx(x-1, y, z)
				dyy := idx(x, y+1, z) - 2*c + idx(x, y-1, z)
				dzz := idx(x, y, z+1) - 2*c + idx(x, y, z-1)
				// Mixed second differences.
				dxy := (idx(x+1, y+1, z) - idx(x+1, y-1, z) - idx(x-1, y+1, z) + idx(x-1, y-1, z)) / 4
				dxz := (idx(x+1, y, z+1) - idx(x+1, y, z-1) - idx(x-1, y, z+1) + idx(x-1, y, z-1)) / 4
				dyz := (idx(x, y+1, z+1) - idx(x, y+1, z-1) - idx(x, y-1, z+1) + idx(x, y-1, z-1)) / 4
				for _, v := range [...]float64{dxx, dyy, dzz, dxy, dxz, dyz} {
					if a := math.Abs(v); a > m {
						m = a
					}
				}
			}
		}
	}
	return m
}

// ErrorBound is the Taylor bound on the reconstruction error of a
// compressed field, as a function of the design choices the paper names:
// the octree rates (driven by k and r) and the field's smoothness M₂.
type ErrorBound struct {
	LInf    float64 // max over cells of (3/8)·rate²·M₂
	L2      float64 // volume-weighted RMS of the per-cell bounds
	MaxRate int
}

// Bound evaluates the per-cell Taylor bound for the tree of c with
// curvature bound m2 (from MaxSecondDerivative or analytic knowledge).
func (c *Compressed) Bound(m2 float64) ErrorBound {
	var b ErrorBound
	sum := 0.0
	vol := 0
	for _, cell := range c.Tree.Cells {
		e := 3.0 / 8.0 * float64(cell.Rate*cell.Rate) * m2
		if cell.Rate == 1 {
			e = 0 // full resolution is exact
		}
		if e > b.LInf {
			b.LInf = e
		}
		if cell.Rate > b.MaxRate {
			b.MaxRate = cell.Rate
		}
		v := cell.Box.Volume()
		sum += float64(v) * e * e
		vol += v
	}
	if vol > 0 {
		b.L2 = math.Sqrt(sum / float64(vol))
	}
	return b
}

// VerifyBound reconstructs c and checks the measured L∞ error against the
// Taylor bound for reference field f, returning the measured error, the
// bound, and an error if the bound is violated. It is both a library
// utility (a posteriori error certification) and the test hook.
func (c *Compressed) VerifyBound(f *grid.Field) (measured, bound float64, err error) {
	if f.Dim != c.Tree.Dim {
		return 0, 0, fmt.Errorf("sample: bound dims %v != %v", f.Dim, c.Tree.Dim)
	}
	rec, err := c.Reconstruct()
	if err != nil {
		return 0, 0, err
	}
	for i := range rec.Data {
		if d := math.Abs(rec.Data[i] - f.Data[i]); d > measured {
			measured = d
		}
	}
	b := c.Bound(MaxSecondDerivative(f))
	if measured > b.LInf*(1+1e-9) {
		return measured, b.LInf, fmt.Errorf("sample: measured L∞ error %g exceeds Taylor bound %g", measured, b.LInf)
	}
	return measured, b.LInf, nil
}
