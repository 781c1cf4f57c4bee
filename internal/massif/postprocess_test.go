package massif

import (
	"fmt"
	"math"
	"testing"

	"lowcomm3d/internal/grid"
)

// Post-processing utilities for solved stress–strain states: the derived
// fields materials scientists read off MASSIF runs (von Mises equivalent
// stress for yield onset, elastic energy density for driving forces).

// VonMises returns the von Mises equivalent stress field
// σ_vm = sqrt(3/2 · s:s) with s the stress deviator.
func (r *Result) VonMises() *grid.Field {
	out := grid.NewField(r.Stress.Dim)
	for i := range out.Data {
		s := r.Stress.AtIndex(i)
		p := s.Trace() / 3
		dev := s
		dev[grid.VXX] -= p
		dev[grid.VYY] -= p
		dev[grid.VZZ] -= p
		ss := dev[grid.VXX]*dev[grid.VXX] + dev[grid.VYY]*dev[grid.VYY] + dev[grid.VZZ]*dev[grid.VZZ] +
			2*(dev[grid.VYZ]*dev[grid.VYZ]+dev[grid.VXZ]*dev[grid.VXZ]+dev[grid.VXY]*dev[grid.VXY])
		out.Data[i] = math.Sqrt(1.5 * ss)
	}
	return out
}

// Pressure returns the hydrostatic pressure field −tr(σ)/3.
func (r *Result) Pressure() *grid.Field {
	out := grid.NewField(r.Stress.Dim)
	for i := range out.Data {
		out.Data[i] = -r.Stress.AtIndex(i).Trace() / 3
	}
	return out
}

// ElasticEnergyDensity returns the per-voxel strain energy ½ σ:ε (with the
// full-tensor double contraction).
func (r *Result) ElasticEnergyDensity() (*grid.Field, error) {
	if r.Stress.Dim != r.Strain.Dim {
		return nil, fmt.Errorf("massif: stress dims %v != strain dims %v", r.Stress.Dim, r.Strain.Dim)
	}
	out := grid.NewField(r.Stress.Dim)
	for i := range out.Data {
		s := r.Stress.AtIndex(i)
		e := r.Strain.AtIndex(i)
		sum := s[grid.VXX]*e[grid.VXX] + s[grid.VYY]*e[grid.VYY] + s[grid.VZZ]*e[grid.VZZ] +
			2*(s[grid.VYZ]*e[grid.VYZ]+s[grid.VXZ]*e[grid.VXZ]+s[grid.VXY]*e[grid.VXY])
		out.Data[i] = sum / 2
	}
	return out, nil
}

// TotalElasticEnergy integrates the energy density over the grid (unit
// cell volume per voxel).
func (r *Result) TotalElasticEnergy() (float64, error) {
	w, err := r.ElasticEnergyDensity()
	if err != nil {
		return 0, err
	}
	return w.Sum(), nil
}

// StressConcentration returns max σ_vm / mean σ_vm, the heterogeneity
// indicator that drives mesh-resolution choices in MASSIF studies.
func (r *Result) StressConcentration() float64 {
	vm := r.VonMises()
	mean := vm.Mean()
	if mean == 0 {
		return 0
	}
	peak := 0.0
	for _, v := range vm.Data {
		peak = max(peak, math.Abs(v))
	}
	return peak / mean
}

// fixedResult builds a Result with uniform stress/strain for closed-form
// checks.
func fixedResult(d grid.Dim3, sigma, eps grid.SymTensor) *Result {
	r := &Result{
		Stress: grid.NewTensorField(d),
		Strain: grid.NewTensorField(d),
	}
	r.Stress.Fill(sigma)
	r.Strain.Fill(eps)
	return r
}

func TestVonMisesClosedForms(t *testing.T) {
	d := grid.Cube(4)
	// Uniaxial stress diag(s,0,0): σ_vm = |s|.
	r := fixedResult(d, grid.SymTensor{5, 0, 0, 0, 0, 0}, grid.SymTensor{})
	vm := r.VonMises()
	if math.Abs(vm.At(1, 2, 3)-5) > 1e-12 {
		t.Errorf("uniaxial vm = %g want 5", vm.At(1, 2, 3))
	}
	// Pure shear σ_xy = τ: σ_vm = √3·τ.
	var sh grid.SymTensor
	sh[grid.VXY] = 2
	r = fixedResult(d, sh, grid.SymTensor{})
	vm = r.VonMises()
	if got, want := vm.At(0, 0, 0), 2*math.Sqrt(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("shear vm = %g want %g", got, want)
	}
	// Hydrostatic stress: deviator vanishes, σ_vm = 0.
	r = fixedResult(d, grid.SymTensor{3, 3, 3, 0, 0, 0}, grid.SymTensor{})
	for _, got := range r.VonMises().Data {
		if math.Abs(got) > 1e-12 {
			t.Fatalf("hydrostatic vm = %g want 0", got)
		}
	}
}

func TestPressure(t *testing.T) {
	d := grid.Cube(2)
	r := fixedResult(d, grid.SymTensor{3, 6, 9, 1, 1, 1}, grid.SymTensor{})
	if got := r.Pressure().At(0, 0, 0); math.Abs(got-(-6)) > 1e-12 {
		t.Errorf("pressure = %g want -6", got)
	}
}

func TestElasticEnergyClosedForm(t *testing.T) {
	d := grid.Cube(4)
	// σ = diag(2,0,0), ε = diag(0.01,0,0): w = ½·2·0.01 = 0.01 per voxel.
	r := fixedResult(d,
		grid.SymTensor{2, 0, 0, 0, 0, 0},
		grid.SymTensor{0.01, 0, 0, 0, 0, 0})
	w, err := r.ElasticEnergyDensity()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.At(0, 0, 0)-0.01) > 1e-14 {
		t.Errorf("density = %g want 0.01", w.At(0, 0, 0))
	}
	tot, err := r.TotalElasticEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tot-0.01*64) > 1e-12 {
		t.Errorf("total = %g want %g", tot, 0.01*64)
	}
	// Shear terms count twice: σ_xy=1, ε_xy=0.5 → w = ½·2·1·0.5 = 0.5.
	var ss, se grid.SymTensor
	ss[grid.VXY] = 1
	se[grid.VXY] = 0.5
	r = fixedResult(d, ss, se)
	w, err = r.ElasticEnergyDensity()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.At(0, 0, 0)-0.5) > 1e-14 {
		t.Errorf("shear density = %g want 0.5", w.At(0, 0, 0))
	}
}

func TestEnergyPositiveAndConcentrationOnComposite(t *testing.T) {
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(16), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	res, err := SolveAccelerated(m, E, Options{Tol: 1e-7, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	tot, err := res.TotalElasticEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if tot <= 0 {
		t.Errorf("total energy %g must be positive", tot)
	}
	// Energy must not exceed the all-stiff-phase uniform bound and must
	// exceed the all-soft uniform value scaled by... keep it one-sided:
	// below the stiff Voigt bound.
	stiffUniform := 0.5 * (p0.Lambda + 2*p0.Mu) * 0.01 * 0.01 * float64(m.Dim.Len())
	if tot > stiffUniform {
		t.Errorf("energy %g exceeds stiff uniform bound %g", tot, stiffUniform)
	}
	// A heterogeneous composite concentrates stress: ratio > 1.
	if sc := res.StressConcentration(); sc <= 1.01 {
		t.Errorf("stress concentration %g should exceed 1", sc)
	}
}

func TestElasticEnergyDimMismatch(t *testing.T) {
	r := &Result{
		Stress: grid.NewTensorField(grid.Cube(4)),
		Strain: grid.NewTensorField(grid.Cube(8)),
	}
	if _, err := r.ElasticEnergyDensity(); err == nil {
		t.Error("dim mismatch should fail")
	}
}
