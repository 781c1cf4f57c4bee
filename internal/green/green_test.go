package green

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/grid"
)

// Component returns the raw tensor entry Γ̂_ijkl(ξ) from Eq. 3: the
// definition Apply is held to.
func (g Gamma) Component(xi [3]float64, i, j, k, l int) float64 {
	q := xi[0]*xi[0] + xi[1]*xi[1] + xi[2]*xi[2]
	if q == 0 {
		return 0
	}
	d := func(a, b int) float64 {
		if a == b {
			return 1
		}
		return 0
	}
	first := (d(k, i)*xi[l]*xi[j] + d(l, i)*xi[k]*xi[j] +
		d(k, j)*xi[l]*xi[i] + d(l, j)*xi[k]*xi[i]) / (4 * g.Mu0 * q)
	second := (g.Lambda0 + g.Mu0) / (g.Mu0 * (g.Lambda0 + 2*g.Mu0)) *
		xi[i] * xi[j] * xi[k] * xi[l] / (q * q)
	return first - second
}

// IsotropicInverse applies the inverse of the isotropic stiffness with
// Lamé coefficients (λ, μ) to a symmetric tensor: it solves
// λ·tr(e)·I + 2μ·e = s for e in closed form, the reference
// IsotropicStress is held to.
func IsotropicInverse(lambda, mu float64, s grid.SymTensor) grid.SymTensor {
	tr := s.Trace()
	// tr(e) = tr(s)/(3λ+2μ); e = (s − λ·tr(e)·I)/(2μ).
	trE := tr / (3*lambda + 2*mu)
	var e grid.SymTensor
	for v := 0; v < grid.NumVoigt; v++ {
		e[v] = s[v] / (2 * mu)
		if v < 3 {
			e[v] -= lambda * trE / (2 * mu)
		}
	}
	return e
}

// maxAbs returns the largest |v| over f.
func maxAbs(f *grid.Field) float64 {
	m := 0.0
	for _, v := range f.Data {
		m = max(m, math.Abs(v))
	}
	return m
}

func TestFreqMapping(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{8, 0, 0}, {8, 1, 1}, {8, 4, 4}, {8, 5, -3}, {8, 7, -1},
		{7, 3, 3}, {7, 4, -3}, {7, 6, -1},
	}
	for _, c := range cases {
		if got := Freq(c.n, c.k); got != c.want {
			t.Errorf("Freq(%d,%d) = %d want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestFreqCoversSymmetricRange(t *testing.T) {
	n := 16
	seen := map[int]bool{}
	for k := 0; k < n; k++ {
		seen[Freq(n, k)] = true
	}
	for f := -n/2 + 1; f <= n/2; f++ {
		if !seen[f] {
			t.Errorf("frequency %d never produced", f)
		}
	}
}

// spatial returns the inverse FFT of a kernel's spectrum — the spatial
// kernel it convolves with.
func spatial(t *testing.T, k Kernel, d grid.Dim3) *grid.Field {
	t.Helper()
	f := grid.NewComplexField(d)
	for kz := 0; kz < d.Nz; kz++ {
		for ky := 0; ky < d.Ny; ky++ {
			for kx := 0; kx < d.Nx; kx++ {
				f.Data[d.Index(kx, ky, kz)] = complex(k.Hat(d, kx, ky, kz), 0)
			}
		}
	}
	p, err := fft.NewPlan3D(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(f); err != nil {
		t.Fatal(err)
	}
	for _, v := range f.Data {
		if im := math.Abs(imag(v)); im > 1e-10 {
			t.Fatalf("kernel %s spatial form has imaginary part %g", k.Name(), im)
		}
	}
	return f.Real()
}

func TestKernelsHaveRealSpatialForm(t *testing.T) {
	d := grid.Cube(16)
	for _, k := range []Kernel{Delta{}, Gaussian{Sigma: 1.5}, Poisson{}, Yukawa{Kappa: 0.5}} {
		spatial(t, k, d) // fails the test internally if imaginary parts remain
	}
}

func TestGaussianSpatialPeakAtOrigin(t *testing.T) {
	d := grid.Cube(32)
	g := spatial(t, Gaussian{Sigma: 2}, d)
	// Zero-centered convention: peak at the origin, wrapping symmetrically
	// (see the Gaussian doc comment for why this replaces the paper's
	// N/2+1 placement).
	peak := g.At(0, 0, 0)
	if peak <= 0 {
		t.Fatalf("origin value %g must be positive", peak)
	}
	max := maxAbs(g)
	if math.Abs(peak-max) > 1e-12*max {
		t.Errorf("peak %g is not the max %g", peak, max)
	}
	// Periodic symmetry g(x) == g(N−x).
	if math.Abs(g.At(3, 0, 0)-g.At(29, 0, 0)) > 1e-12*peak {
		t.Error("kernel not circularly even")
	}
}

func TestGaussianRapidDecay(t *testing.T) {
	d := grid.Cube(32)
	g := spatial(t, Gaussian{Sigma: 1.5}, d)
	peak := g.At(0, 0, 0)
	// At 8 cells away, a σ=1.5 Gaussian has decayed by e^{-64/(2·2.25)} —
	// far more than 1e-6.
	far := math.Abs(g.At(8, 0, 0))
	if far > 1e-6*peak {
		t.Errorf("decay too slow: value at distance 8 is %g of peak", far/peak)
	}
}

func TestPoissonDecayLikeOneOverR(t *testing.T) {
	d := grid.Cube(64)
	g := spatial(t, Poisson{}, d)
	// Periodic Green's function of the Laplacian behaves like 1/(4πr) near
	// the source at 0 (plus a constant from zero-mode removal). Use the
	// difference between radii to cancel the constant: g(r1)−g(r2) ≈
	// (1/4π)(1/r1−1/r2).
	g1 := g.At(2, 0, 0)
	g2 := g.At(4, 0, 0)
	g3 := g.At(8, 0, 0)
	got := (g1 - g2) / (g2 - g3)
	want := (1.0/2 - 1.0/4) / (1.0/4 - 1.0/8)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("1/r decay ratio = %g want ≈ %g", got, want)
	}
}

func TestYukawaDecaysFasterThanPoisson(t *testing.T) {
	d := grid.Cube(64)
	gp := spatial(t, Poisson{}, d)
	gy := spatial(t, Yukawa{Kappa: 1}, d)
	// Normalized tail mass must be smaller for the screened kernel.
	ratioP := math.Abs(gp.At(16, 0, 0) / gp.At(2, 0, 0))
	ratioY := math.Abs(gy.At(16, 0, 0) / gy.At(2, 0, 0))
	if ratioY >= ratioP {
		t.Errorf("yukawa tail ratio %g should be < poisson %g", ratioY, ratioP)
	}
}

func TestDeltaIsIdentity(t *testing.T) {
	d := grid.Cube(8)
	if (Delta{}).Hat(d, 3, 5, 7) != 1 {
		t.Error("delta spectrum must be 1 everywhere")
	}
}

func TestPoissonZeroModeRemoved(t *testing.T) {
	d := grid.Cube(8)
	if got := (Poisson{}).Hat(d, 0, 0, 0); got != 0 {
		t.Errorf("zero mode = %g want 0", got)
	}
}

func TestGammaZeroFrequency(t *testing.T) {
	g := Gamma{Lambda0: 1, Mu0: 1}
	if got := g.Apply([3]float64{0, 0, 0}, grid.SymTensor{1, 2, 3, 4, 5, 6}); got != (grid.SymTensor{}) {
		t.Errorf("Γ at ξ=0 must be zero, got %v", got)
	}
}

func TestGammaApplyMatchesComponentDefinition(t *testing.T) {
	g := Gamma{Lambda0: 1.3, Mu0: 0.7}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		xi := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		var s grid.SymTensor
		for v := range s {
			s[v] = rng.NormFloat64()
		}
		got := g.Apply(xi, s)
		// Direct contraction Σ_kl Γ_ijkl σ_kl from the Eq. 3 components.
		for v := 0; v < grid.NumVoigt; v++ {
			i, j := grid.VoigtPair(v)
			want := 0.0
			for k := 0; k < 3; k++ {
				for l := 0; l < 3; l++ {
					want += g.Component(xi, i, j, k, l) * s.At(k, l)
				}
			}
			if math.Abs(got[v]-want) > 1e-12 {
				t.Fatalf("trial %d comp %d: apply %g definition %g", trial, v, got[v], want)
			}
		}
	}
}

func TestGammaHomogeneityDegreeZero(t *testing.T) {
	// Γ̂(cξ) == Γ̂(ξ) for any c ≠ 0 (paper: closed form depends only on
	// the direction of ξ).
	g := Gamma{Lambda0: 2, Mu0: 1}
	s := grid.SymTensor{1, -2, 0.5, 0.1, -0.7, 2}
	xi := [3]float64{1, 2, -3}
	a := g.Apply(xi, s)
	b := g.Apply([3]float64{5, 10, -15}, s)
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-13 {
			t.Fatalf("homogeneity violated at comp %d: %g vs %g", v, a[v], b[v])
		}
	}
}

func TestGammaProjectionProperty(t *testing.T) {
	// Defining property of the Green operator: for a compatible strain
	// ε̂_ij = (ξ_i u_j + ξ_j u_i)/2 and σ̂ = C⁰:ε̂,  Γ̂:σ̂ = ε̂.
	lambda, mu := 1.2, 0.8
	g := Gamma{Lambda0: lambda, Mu0: mu}
	f := func(ux, uy, uz, xx, xy, xz float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e50 {
				return 1
			}
			return v
		}
		u := [3]float64{clamp(ux), clamp(uy), clamp(uz)}
		xi := [3]float64{clamp(xx), clamp(xy), clamp(xz)}
		if xi[0]*xi[0]+xi[1]*xi[1]+xi[2]*xi[2] < 1e-12 {
			return true
		}
		var eps grid.SymTensor
		for v := 0; v < grid.NumVoigt; v++ {
			i, j := grid.VoigtPair(v)
			eps[v] = (xi[i]*u[j] + xi[j]*u[i]) / 2
		}
		sigma := IsotropicStress(lambda, mu, eps)
		back := g.Apply(xi, sigma)
		scale := eps.Norm() + 1
		for v := range back {
			if math.Abs(back[v]-eps[v]) > 1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGammaResultSymmetricByConstruction(t *testing.T) {
	// The Voigt representation is symmetric by construction; check the
	// off-diagonal formula really equals both (i,j) and (j,i) orderings
	// computed from components.
	g := Gamma{Lambda0: 1, Mu0: 1}
	xi := [3]float64{1, -2, 0.5}
	s := grid.SymTensor{0.3, -1, 2, 0.7, -0.2, 1.1}
	res := g.Apply(xi, s)
	for v := grid.VYZ; v <= grid.VXY; v++ {
		i, j := grid.VoigtPair(v)
		ij, ji := 0.0, 0.0
		for k := 0; k < 3; k++ {
			for l := 0; l < 3; l++ {
				ij += g.Component(xi, i, j, k, l) * s.At(k, l)
				ji += g.Component(xi, j, i, k, l) * s.At(k, l)
			}
		}
		if math.Abs(ij-ji) > 1e-13 {
			t.Fatalf("Γ not minor-symmetric at %d: %g vs %g", v, ij, ji)
		}
		if math.Abs(res[v]-ij) > 1e-13 {
			t.Fatalf("apply mismatch at %d", v)
		}
	}
}

func TestIsotropicStress(t *testing.T) {
	// Hydrostatic strain: σ = (3λ+2μ)·ε_vol on the diagonal.
	lambda, mu := 2.0, 1.0
	eps := grid.SymTensor{1, 1, 1, 0, 0, 0}
	s := IsotropicStress(lambda, mu, eps)
	want := 3*lambda + 2*mu
	for v := 0; v < 3; v++ {
		if math.Abs(s[v]-want) > 1e-14 {
			t.Errorf("diag %d = %g want %g", v, s[v], want)
		}
	}
	for v := 3; v < 6; v++ {
		if s[v] != 0 {
			t.Errorf("shear %d = %g want 0", v, s[v])
		}
	}
	// Pure shear: σ_xy = 2μ·ε_xy.
	var sh grid.SymTensor
	sh[grid.VXY] = 0.5
	ss := IsotropicStress(lambda, mu, sh)
	if math.Abs(ss[grid.VXY]-2*mu*0.5) > 1e-14 {
		t.Errorf("shear stress = %g want %g", ss[grid.VXY], 2*mu*0.5)
	}
	if ss[grid.VXX] != 0 {
		t.Error("pure shear must not create normal stress")
	}
}

func TestLameFromENu(t *testing.T) {
	e, nu := 210.0, 0.3
	lambda, mu := LameFromENu(e, nu)
	// Invert: E = μ(3λ+2μ)/(λ+μ), ν = λ/(2(λ+μ)).
	eBack := mu * (3*lambda + 2*mu) / (lambda + mu)
	nuBack := lambda / (2 * (lambda + mu))
	if math.Abs(eBack-e) > 1e-9 || math.Abs(nuBack-nu) > 1e-12 {
		t.Errorf("round trip E=%g ν=%g", eBack, nuBack)
	}
}

func TestSeparableMatchesHat(t *testing.T) {
	d := grid.Dim3{Nx: 16, Ny: 8, Nz: 32}
	for _, k := range []Separable{Gaussian{Sigma: 1.7}, Delta{}} {
		for kz := 0; kz < d.Nz; kz += 3 {
			for ky := 0; ky < d.Ny; ky++ {
				for kx := 0; kx < d.Nx; kx += 5 {
					want := k.Hat(d, kx, ky, kz)
					got := k.AxisHat(d.Nx, kx) * k.AxisHat(d.Ny, ky) * k.AxisHat(d.Nz, kz)
					if math.Abs(got-want) > 1e-14*(1+math.Abs(want)) {
						t.Fatalf("%s at (%d,%d,%d): product %g hat %g", k.Name(), kx, ky, kz, got, want)
					}
				}
			}
		}
	}
}

func TestIsotropicInverseRoundTrip(t *testing.T) {
	lambda, mu := 2.3, 0.9
	f := func(a, b, c, d, e, g float64) bool {
		s := grid.SymTensor{a, b, c, d, e, g}
		for v := range s {
			if math.IsNaN(s[v]) || math.IsInf(s[v], 0) || math.Abs(s[v]) > 1e100 {
				s[v] = 1
			}
		}
		back := IsotropicInverse(lambda, mu, IsotropicStress(lambda, mu, s))
		scale := s.Norm() + 1
		for v := range back {
			if math.Abs(back[v]-s[v]) > 1e-12*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKernelNames(t *testing.T) {
	for _, k := range []Kernel{Delta{}, Gaussian{Sigma: 2}, Poisson{}, Yukawa{Kappa: 1}} {
		if k.Name() == "" {
			t.Errorf("%T has empty name", k)
		}
	}
}

func TestKernelAlgebra(t *testing.T) {
	d := grid.Cube(8)
	g := Gaussian{Sigma: 1}
	p := Poisson{}
	kx, ky, kz := 3, 1, 5
	if got, want := (Scaled{K: g, Factor: 2.5}).Hat(d, kx, ky, kz), 2.5*g.Hat(d, kx, ky, kz); math.Abs(got-want) > 1e-15 {
		t.Errorf("scaled = %g want %g", got, want)
	}
	if got, want := (Sum{A: g, B: p}).Hat(d, kx, ky, kz), g.Hat(d, kx, ky, kz)+p.Hat(d, kx, ky, kz); math.Abs(got-want) > 1e-15 {
		t.Errorf("sum = %g want %g", got, want)
	}
	if got, want := (Product{A: g, B: p}).Hat(d, kx, ky, kz), g.Hat(d, kx, ky, kz)*p.Hat(d, kx, ky, kz); math.Abs(got-want) > 1e-15 {
		t.Errorf("product = %g want %g", got, want)
	}
	for _, k := range []Kernel{Scaled{K: g, Factor: 2}, Sum{A: g, B: p}, Product{A: g, B: p}} {
		if k.Name() == "" {
			t.Errorf("%T has empty name", k)
		}
	}
	// Composition with δ is the identity on spectra.
	if got, want := (Product{A: g, B: Delta{}}).Hat(d, kx, ky, kz), g.Hat(d, kx, ky, kz); got != want {
		t.Errorf("g∘δ = %g want %g", got, want)
	}
}
