package green

import (
	"math"

	"lowcomm3d/internal/grid"
)

// Gamma is the MASSIF Green's-function operator of the paper's Eq. 3:
//
//	Γ̂_ijkl(ξ) = 1/(4μ₀|ξ|²)·(δ_ki ξ_l ξ_j + δ_li ξ_k ξ_j + δ_kj ξ_l ξ_i + δ_lj ξ_k ξ_i)
//	          − (λ₀+μ₀)/(μ₀(λ₀+2μ₀)) · ξ_i ξ_j ξ_k ξ_l / |ξ|⁴
//
// for an isotropic reference medium with Lamé coefficients (λ₀, μ₀). The
// operator is homogeneous of degree zero in ξ, so it depends only on the
// direction n = ξ/|ξ|; the closed form is evaluated on the fly per
// frequency point, exactly the memory saving the paper highlights (§2.2:
// "the closed form of the Green's function for MASSIF is known in
// frequency domain, so it can be computed on-the-fly").
type Gamma struct {
	Lambda0, Mu0 float64
}

// Apply contracts Γ̂(ξ) with a symmetric rank-2 tensor: (Γ̂:σ)_ij. The
// contraction reduces to vector algebra (t = σ·n, s = n·σ·n):
//
//	(Γ̂:σ)_ij = (n_i t_j + n_j t_i)/(2μ₀) − c·n_i n_j s,
//	c = (λ₀+μ₀)/(μ₀(λ₀+2μ₀)).
//
// ξ = 0 returns the zero tensor (the mean strain is pinned separately by
// the solver's boundary condition).
func (g Gamma) Apply(xi [3]float64, s grid.SymTensor) grid.SymTensor {
	q := xi[0]*xi[0] + xi[1]*xi[1] + xi[2]*xi[2]
	if q == 0 {
		return grid.SymTensor{}
	}
	inv := 1 / math.Sqrt(q)
	n := [3]float64{xi[0] * inv, xi[1] * inv, xi[2] * inv}
	// t = σ·n using Voigt components.
	t := [3]float64{
		s[grid.VXX]*n[0] + s[grid.VXY]*n[1] + s[grid.VXZ]*n[2],
		s[grid.VXY]*n[0] + s[grid.VYY]*n[1] + s[grid.VYZ]*n[2],
		s[grid.VXZ]*n[0] + s[grid.VYZ]*n[1] + s[grid.VZZ]*n[2],
	}
	sn := t[0]*n[0] + t[1]*n[1] + t[2]*n[2]
	c := (g.Lambda0 + g.Mu0) / (g.Mu0 * (g.Lambda0 + 2*g.Mu0))
	halfInvMu := 1 / (2 * g.Mu0)
	var r grid.SymTensor
	for v := 0; v < grid.NumVoigt; v++ {
		i, j := grid.VoigtPair(v)
		r[v] = (n[i]*t[j]+n[j]*t[i])*halfInvMu - c*n[i]*n[j]*sn
	}
	return r
}

// ApplyAt applies Γ̂ at the FFT output indices (kx, ky, kz) of a grid with
// dimensions d, using the signed lattice frequencies. It returns zero at
// the zero mode and at Nyquist-ambiguous frequencies (any index equal to
// N/2 on an even grid).
//
// The Nyquist zeroing is essential for a well-defined discrete operator:
// at a mixed-Nyquist frequency such as (N/2, 1, 0), the Hermitian-partner
// index maps to (N/2, −1, 0), which is NOT the negation of (N/2, 1, 0) —
// and Γ̂, being direction-dependent, takes different values on the two.
// Left in place, that asymmetry breaks the Hermitian symmetry of
// transformed real fields and splits the fixed points of the basic and
// accelerated schemes by O(1%) on voxelized microstructures. Zeroing the
// ambiguous modes (the same convention as the zero mode, standard in
// FFT-homogenization codes) restores exact evenness, and with it the
// discrete projection identity Γ̂C⁰Γ̂ = Γ̂.
func (g Gamma) ApplyAt(d grid.Dim3, kx, ky, kz int, s grid.SymTensor) grid.SymTensor {
	if nyquist(d.Nx, kx) || nyquist(d.Ny, ky) || nyquist(d.Nz, kz) {
		return grid.SymTensor{}
	}
	xi := [3]float64{
		float64(Freq(d.Nx, kx)),
		float64(Freq(d.Ny, ky)),
		float64(Freq(d.Nz, kz)),
	}
	return g.Apply(xi, s)
}

// nyquist reports whether index k is the ambiguous ±N/2 frequency of an
// even length-n transform.
func nyquist(n, k int) bool { return n%2 == 0 && k == n/2 }

// IsotropicStress applies the isotropic Hooke's law σ = λ·tr(ε)·I + 2μ·ε.
func IsotropicStress(lambda, mu float64, eps grid.SymTensor) grid.SymTensor {
	tr := eps.Trace()
	var s grid.SymTensor
	for v := 0; v < grid.NumVoigt; v++ {
		s[v] = 2 * mu * eps[v]
		if v < 3 {
			s[v] += lambda * tr
		}
	}
	return s
}

// LameFromENu converts engineering constants (Young's modulus E, Poisson
// ratio ν) to Lamé coefficients (λ, μ).
func LameFromENu(e, nu float64) (lambda, mu float64) {
	lambda = e * nu / ((1 + nu) * (1 - 2*nu))
	mu = e / (2 * (1 + nu))
	return
}
