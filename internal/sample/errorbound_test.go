package sample

import (
	"math"
	"testing"

	"lowcomm3d/internal/grid"
)

func TestMaxSecondDerivativeQuadratic(t *testing.T) {
	// f = x² has exact second difference 2 along x (away from the
	// periodic wrap, which dominates the max; test on the interior by
	// using a field that wraps smoothly instead: f = cos(2πx/N)).
	n := 32
	d := grid.Cube(n)
	f := grid.NewField(d)
	w := 2 * math.Pi / float64(n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				f.Set(x, y, z, math.Cos(w*float64(x)))
			}
		}
	}
	got := MaxSecondDerivative(f)
	// Analytic: max |f''| = w² (per unit grid spacing); the central
	// difference of cos is 2(cos(w)−1) ≈ −w².
	want := 2 * (1 - math.Cos(w))
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("M2 = %g want %g", got, want)
	}
}

func TestBoundZeroAtFullResolution(t *testing.T) {
	d := grid.Cube(16)
	tree, err := Uniform{Rate: 1, CellSize: 8}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompressed(tree)
	b := c.Bound(123)
	if b.LInf != 0 || b.L2 != 0 {
		t.Errorf("rate-1 bound must be zero: %+v", b)
	}
}

func TestTaylorBoundHoldsSmoothField(t *testing.T) {
	// Low-frequency trig field: the measured reconstruction error must
	// respect the Taylor bound at every rate.
	n := 32
	d := grid.Cube(n)
	f := grid.NewField(d)
	w := 2 * math.Pi / float64(n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				f.Set(x, y, z, math.Sin(w*float64(x))*math.Cos(w*float64(y))+
					0.5*math.Cos(w*float64(z)))
			}
		}
	}
	for _, rate := range []int{2, 4, 8} {
		tree, err := Uniform{Rate: rate, CellSize: 8}.Tree(d)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compress(f, tree)
		if err != nil {
			t.Fatal(err)
		}
		measured, bound, err := c.VerifyBound(f)
		if err != nil {
			t.Errorf("rate %d: %v", rate, err)
		}
		if bound <= 0 {
			t.Errorf("rate %d: degenerate bound", rate)
		}
		// The bound should be meaningful, not absurdly loose: within 50×
		// of the measured error on this well-behaved field.
		if measured > 0 && bound/measured > 50 {
			t.Errorf("rate %d: bound %g is %.0fx the measured %g", rate, bound, bound/measured, measured)
		}
		t.Logf("rate %d: measured %.5f bound %.5f", rate, measured, bound)
	}
}

func TestTaylorBoundHoldsDecayingField(t *testing.T) {
	// The convolution-result field class, adaptive tree.
	n := 64
	d := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{24, 24, 24}, 16)
	f := grid.NewField(d)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				dx, dy, dz := float64(x-32), float64(y-32), float64(z-32)
				f.Set(x, y, z, math.Exp(-(dx*dx+dy*dy+dz*dz)/60))
			}
		}
	}
	tree, err := DefaultPolicy(sub, 16).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	measured, bound, err := c.VerifyBound(f)
	if err != nil {
		t.Error(err)
	}
	t.Logf("adaptive: measured %.5f bound %.5f", measured, bound)
	// Bound scales with the coarsest rate (the paper's r dial).
	b := c.Bound(MaxSecondDerivative(f))
	if b.MaxRate < 2 {
		t.Errorf("expected coarse cells in adaptive tree, max rate %d", b.MaxRate)
	}
	if b.L2 > b.LInf {
		t.Errorf("L2 bound %g cannot exceed L∞ bound %g", b.L2, b.LInf)
	}
}

func TestBoundScalesQuadraticallyWithRate(t *testing.T) {
	d := grid.Cube(16)
	t2, err := Uniform{Rate: 2, CellSize: 8}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Uniform{Rate: 4, CellSize: 8}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCompressed(t2)
	c4 := NewCompressed(t4)
	b2 := c2.Bound(1)
	b4 := c4.Bound(1)
	if math.Abs(b4.LInf/b2.LInf-4) > 1e-12 {
		t.Errorf("bound ratio %g want 4 (h² scaling)", b4.LInf/b2.LInf)
	}
}

func TestVerifyBoundDimMismatch(t *testing.T) {
	tree, err := Uniform{Rate: 2}.Tree(grid.Cube(16))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompressed(tree)
	if _, _, err := c.VerifyBound(grid.NewField(grid.Cube(8))); err == nil {
		t.Error("dim mismatch should fail")
	}
}
