package massif

import (
	"fmt"
	"math"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

// SolveAccelerated solves the same equilibrium problem as SolveReference
// with conjugate-gradient acceleration (Zeman et al. 2010): instead of the
// basic fixed point, it solves the Lippmann–Schwinger system
//
//	A ε = E,  A(ε) = ε + Γ̂⁰ * (δC : ε),  δC = C(x) − C⁰,
//
// by CG in the C⁰-energy inner product ⟨a,b⟩ = Σ_x a : C⁰ : b, in which A
// is symmetric positive definite on the compatible subspace. Every Krylov
// vector is a Γ̂ image, hence compatible and mean-free, so iterates stay
// on the physical manifold (the pitfall that makes naïve Eyre–Milton
// preconditioning converge to spurious roots — see the package tests).
// Each iteration costs one Γ̂ convolution, like a basic-scheme iteration,
// but the iteration count scales with √contrast instead of contrast.
//
// This is the extension the paper anticipates for "other simulations
// belonging to the same family of linear inhomogeneous PDEs".
func SolveAccelerated(m *Microstructure, E grid.SymTensor, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	lambda0, mu0 := m.ReferenceMedium()
	step, spectra, err := gammaStep(m, green.Gamma{Lambda0: lambda0, Mu0: mu0}, opt)
	if err != nil {
		return nil, err
	}
	if E.Norm() == 0 {
		return nil, fmt.Errorf("massif: applied strain must be nonzero")
	}

	// applyA computes dst = src + Γ̂⁰*(δC : src). dst may alias src.
	applyA := func(dst, src *grid.TensorField) error {
		// δC:e = C(x):e − C⁰:e, through the full constitutive law so
		// anisotropic microstructures work unchanged.
		if err := step(func(i int) grid.SymTensor {
			e := src.AtIndex(i)
			return m.StressIndex(i, e).Sub(green.IsotropicStress(lambda0, mu0, e))
		}); err != nil {
			return err
		}
		for v := 0; v < grid.NumVoigt; v++ {
			s := src.Comp[v].Data
			d := dst.Comp[v].Data
			for i := range d {
				d[i] = s[i] + real(spectra[v].Data[i])
			}
		}
		return nil
	}
	// C⁰-energy inner product with full-tensor off-diagonal weighting.
	dot := func(a, b *grid.TensorField) float64 {
		sum := 0.0
		for i := 0; i < m.Dim.Len(); i++ {
			ta := a.AtIndex(i)
			cb := green.IsotropicStress(lambda0, mu0, b.AtIndex(i))
			for v := 0; v < grid.NumVoigt; v++ {
				w := 1.0
				if v >= grid.VYZ {
					w = 2.0
				}
				sum += w * ta[v] * cb[v]
			}
		}
		return sum
	}
	axpy := func(dst *grid.TensorField, alpha float64, x *grid.TensorField) {
		for v := 0; v < grid.NumVoigt; v++ {
			d := dst.Comp[v].Data
			s := x.Comp[v].Data
			for i := range d {
				d[i] += alpha * s[i]
			}
		}
	}

	// x = E; r = E − A(x) = −Γ̂(δC:E); p = r.
	x := grid.NewTensorField(m.Dim)
	x.Fill(E)
	r := grid.NewTensorField(m.Dim)
	if err := applyA(r, x); err != nil {
		return nil, err
	}
	for v := 0; v < grid.NumVoigt; v++ {
		d := r.Comp[v].Data
		for i := range d {
			d[i] = E[v] - d[i]
		}
	}
	p := r.Clone()
	ap := grid.NewTensorField(m.Dim)
	res := &Result{Strain: x}
	rr := dot(r, r)
	// Normalize the residual by ‖b‖ in the same energy norm.
	b := grid.NewTensorField(m.Dim)
	b.Fill(E)
	normB := math.Sqrt(dot(b, b))

	for iter := 0; iter < opt.MaxIter; iter++ {
		rel := math.Sqrt(rr) / normB
		res.Residuals = append(res.Residuals, rel)
		res.Iterations = iter
		if rel < opt.Tol {
			res.Converged = true
			break
		}
		if err := applyA(ap, p); err != nil {
			return nil, err
		}
		pap := dot(p, ap)
		if pap <= 0 {
			return nil, fmt.Errorf("massif: CG breakdown (⟨p,Ap⟩ = %g); reference medium not admissible", pap)
		}
		alpha := rr / pap
		axpy(x, alpha, p)
		axpy(r, -alpha, ap)
		rrNew := dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		for v := 0; v < grid.NumVoigt; v++ {
			pd := p.Comp[v].Data
			rd := r.Comp[v].Data
			for i := range pd {
				pd[i] = rd[i] + beta*pd[i]
			}
		}
		res.Iterations = iter + 1
	}
	stress, err := m.StressField(x, nil)
	if err != nil {
		return nil, err
	}
	res.Stress = stress
	return res, nil
}
