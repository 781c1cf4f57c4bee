package massif

import (
	"math"
	"testing"
	"testing/quick"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

func TestIsotropicStiffnessMatchesClosedForm(t *testing.T) {
	lambda, mu := 1.7, 0.6
	s := IsotropicStiffness(lambda, mu)
	if !s.Symmetric(0) {
		t.Fatal("isotropic tensor must be exactly symmetric")
	}
	f := func(a, b, c, d, e, g float64) bool {
		eps := grid.SymTensor{a, b, c, d, e, g}
		for v := range eps {
			if math.IsNaN(eps[v]) || math.IsInf(eps[v], 0) || math.Abs(eps[v]) > 1e100 {
				eps[v] = 1
			}
		}
		want := green.IsotropicStress(lambda, mu, eps)
		got := s.Apply(eps)
		scale := want.Norm() + 1
		for v := range got {
			if math.Abs(got[v]-want[v]) > 1e-12*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRotateIsotropicInvariant(t *testing.T) {
	s := IsotropicStiffness(2.1, 0.8)
	rng := newSplitMix(11)
	for trial := 0; trial < 5; trial++ {
		r := RandomRotation(rng)
		rot := s.Rotate(r)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 3; k++ {
					for l := 0; l < 3; l++ {
						if math.Abs(rot.C[i][j][k][l]-s.C[i][j][k][l]) > 1e-12 {
							t.Fatalf("isotropic tensor changed under rotation at [%d%d%d%d]", i, j, k, l)
						}
					}
				}
			}
		}
	}
}

func TestCubicDegeneratesToIsotropic(t *testing.T) {
	// c44 = (c11−c12)/2 (Zener ratio 1) is isotropic with λ = c12,
	// μ = c44.
	c11, c12 := 3.0, 1.2
	c44 := (c11 - c12) / 2
	cubic := CubicStiffness(c11, c12, c44)
	iso := IsotropicStiffness(c12, c44)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				for l := 0; l < 3; l++ {
					if math.Abs(cubic.C[i][j][k][l]-iso.C[i][j][k][l]) > 1e-14 {
						t.Fatalf("Zener-1 cubic != isotropic at [%d%d%d%d]", i, j, k, l)
					}
				}
			}
		}
	}
}

func TestRotationPreservesSymmetryAndEnergy(t *testing.T) {
	// Copper-like cubic constants (strongly anisotropic, Zener ≈ 3.2).
	cu := CubicStiffness(168.4, 121.4, 75.4)
	if !cu.Symmetric(1e-12) {
		t.Fatal("cubic tensor must be symmetric")
	}
	rng := newSplitMix(3)
	r := RandomRotation(rng)
	rot := cu.Rotate(r)
	if !rot.Symmetric(1e-9) {
		t.Fatal("rotation must preserve tensor symmetries")
	}
	// Rotation matrices are orthogonal.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			dot := 0.0
			for k := 0; k < 3; k++ {
				dot += r[i][k] * r[j][k]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-12 {
				t.Fatalf("rotation not orthogonal at (%d,%d): %g", i, j, dot)
			}
		}
	}
	// Elastic energy ε:C:ε is frame-invariant when ε is rotated with C:
	// ε':C':ε' == ε:C:ε with ε' = RεRᵀ.
	eps := grid.SymTensor{0.01, -0.003, 0.004, 0.002, -0.001, 0.005}
	energy := func(c Stiffness, e grid.SymTensor) float64 {
		s := c.Apply(e)
		sum := 0.0
		for v := 0; v < grid.NumVoigt; v++ {
			w := 1.0
			if v >= grid.VYZ {
				w = 2.0
			}
			sum += w * s[v] * e[v]
		}
		return sum
	}
	// Rotate eps: ε'_ij = R_ia R_jb ε_ab.
	var rotEps grid.SymTensor
	for v := 0; v < grid.NumVoigt; v++ {
		i, j := grid.VoigtPair(v)
		sum := 0.0
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				sum += r[i][a] * r[j][b] * eps.At(a, b)
			}
		}
		rotEps[v] = sum
	}
	e1 := energy(cu, eps)
	e2 := energy(rot, rotEps)
	if math.Abs(e1-e2)/math.Abs(e1) > 1e-10 {
		t.Errorf("energy not frame-invariant: %g vs %g", e1, e2)
	}
	if e1 <= 0 {
		t.Errorf("elastic energy %g must be positive", e1)
	}
}

func TestSetAnisotropicValidation(t *testing.T) {
	p0, _ := steelAndSoft()
	m, _ := NewMicrostructure(grid.Cube(4), p0)
	if err := m.SetAnisotropic(nil); err == nil {
		t.Error("wrong stiffness count should fail")
	}
	var asym Stiffness
	asym.C[0][1][2][2] = 1 // breaks minor symmetry
	if err := m.SetAnisotropic([]Stiffness{asym}); err == nil {
		t.Error("asymmetric tensor should fail")
	}
	if m.aniso != nil {
		t.Error("failed SetAnisotropic must not attach")
	}
	if err := m.SetAnisotropic([]Stiffness{IsotropicStiffness(p0.Lambda, p0.Mu)}); err != nil {
		t.Fatal(err)
	}
	if m.aniso == nil {
		t.Error("Anisotropic() should report true")
	}
}

func TestAnisotropicIsotropicEquivalence(t *testing.T) {
	// Attaching the isotropic tensors as "anisotropic" stiffness must not
	// change the solution at all.
	p0, p1 := steelAndSoft()
	m1, _ := NewMicrostructure(grid.Cube(16), p0, p1)
	if err := m1.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		t.Fatal(err)
	}
	m2, _ := NewMicrostructure(grid.Cube(16), p0, p1)
	copy(m2.Index, m1.Index)
	if err := m2.SetAnisotropic([]Stiffness{
		IsotropicStiffness(p0.Lambda, p0.Mu),
		IsotropicStiffness(p1.Lambda, p1.Mu),
	}); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	opt := Options{Tol: 1e-8, MaxIter: 200}
	r1, err := SolveAccelerated(m1, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveAccelerated(m2, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := grid.RelL2Tensor(r2.Strain, r1.Strain)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 1e-12 {
		t.Errorf("isotropic-as-anisotropic changed solution by %g", rel)
	}
}

func TestRandomOrientedPolycrystalSolves(t *testing.T) {
	// Copper polycrystal: cubic grains in random orientations. The
	// reference medium is the Voigt-average isotropic approximation.
	cu := CubicStiffness(168.4, 121.4, 75.4)
	// Voigt averages for cubic: λ_V = (c11+4c12−2c44)/5, μ_V = (c11−c12+3c44)/5.
	lambdaV := (168.4 + 4*121.4 - 2*75.4) / 5
	muV := (168.4 - 121.4 + 3*75.4) / 5
	m, err := RandomOrientedPolycrystal(grid.Cube(16), cu,
		Phase{Lambda: lambdaV, Mu: muV}, 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	if m.aniso == nil {
		t.Fatal("polycrystal must be anisotropic")
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	res, err := SolveAccelerated(m, E, Options{Tol: 1e-7, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("copper polycrystal did not converge (residual %g)",
			res.Residuals[len(res.Residuals)-1])
	}
	// The effective axial modulus lies between the single-crystal soft
	// and stiff directions: E<100> ≈ 67 GPa, E<111> ≈ 191 GPa for copper;
	// the polycrystal aggregate must sit strictly between the extreme
	// P-wave responses.
	sxx := res.MeanStress()[grid.VXX]
	if sxx <= 0 {
		t.Fatalf("mean axial stress %g must be positive", sxx)
	}
	soft := 0.01 * 75.0   // far below any aggregate response
	stiff := 0.01 * 300.0 // far above
	if sxx < soft || sxx > stiff {
		t.Errorf("polycrystal σ_xx = %g implausible", sxx)
	}
	// Grain interactions must produce a heterogeneous strain field.
	spread := 0.0
	for _, v := range res.Strain.Comp[grid.VXX].Data {
		if d := math.Abs(v - 0.01); d > spread {
			spread = d
		}
	}
	if spread < 1e-4 {
		t.Errorf("strain field suspiciously uniform (spread %g)", spread)
	}
}

func TestRandomOrientedPolycrystalErrors(t *testing.T) {
	cu := CubicStiffness(168.4, 121.4, 75.4)
	if _, err := RandomOrientedPolycrystal(grid.Cube(8), cu, Phase{Lambda: 1, Mu: 1}, 0, 1); err == nil {
		t.Error("zero grains should fail")
	}
	if _, err := RandomOrientedPolycrystal(grid.Cube(8), cu, Phase{Lambda: 1, Mu: 1}, 300, 1); err == nil {
		t.Error("too many grains should fail")
	}
}
