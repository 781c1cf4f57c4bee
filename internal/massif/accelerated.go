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
// belonging to the same family of linear inhomogeneous PDEs". It is the one
// loop with the dense operator and the cg rule.
func SolveAccelerated(m *Microstructure, E grid.SymTensor, opt Options) (*Result, error) {
	return solveDense(m, E, opt, newCG)
}

// cg is the conjugate-gradient rule on the rank's strain x: each iteration
// applies A(p) = p + Γ̂⁰*(δC : p) once and reduces two dot products, ⟨p, Ap⟩
// (the driver's reduction) and ⟨r, r⟩. Its residual is ‖r‖/‖E‖ in the
// energy norm.
type cg struct {
	op           operator
	r            *rank
	lambda0, mu0 float64
	res, p, ap   []*grid.TensorField // r, p and A(p) per box
	rr, normB    float64
}

// newCG starts CG at x = E: r = E − A(x) is the head of the history.
func newCG(s *solve, r *rank, op operator) (rule, error) {
	x := r.eps
	c := &cg{op: op, r: r, p: x} // the first application is A(x)
	c.lambda0, c.mu0 = s.m.ReferenceMedium()
	if err := op.apply(0, c.input, r.delta); err != nil {
		return nil, err
	}
	c.p = nil
	for b, e := range x {
		res := grid.NewTensorField(e.Dim)
		for v, f := range e.Comp {
			ri, d := res.Comp[v].Data, r.delta[b].Comp[v].Data
			for i, xi := range f.Data {
				ri[i] = s.E[v] - (xi + d[i])
			}
		}
		c.res, c.p = append(c.res, res), append(c.p, res.Clone())
		c.ap = append(c.ap, grid.NewTensorField(e.Dim))
	}
	// ‖b‖ = ‖E‖ in the same energy norm, from x = E.
	sums, err := op.sum(0, []float64{c.dot(c.res, c.res), c.dot(x, x)})
	if err != nil {
		return nil, err
	}
	c.rr, c.normB = sums[0], math.Sqrt(sums[1])
	s.head = []float64{math.Sqrt(c.rr) / c.normB}
	return c, nil
}

// input is δC:p = C(x):p − C⁰:p at voxel i of box b, through the full
// constitutive law so anisotropic microstructures work unchanged.
func (c *cg) input(b, i, g int) grid.SymTensor {
	e := c.p[b].AtIndex(i)
	return c.r.m.StressIndex(g, e).Sub(green.IsotropicStress(c.lambda0, c.mu0, e))
}

func (c *cg) partial(out []*grid.TensorField) []float64 {
	for b, d := range out {
		for v, f := range d.Comp {
			p, ap := c.p[b].Comp[v].Data, c.ap[b].Comp[v].Data
			for i, x := range f.Data {
				ap[i] = p[i] + x
			}
		}
	}
	return []float64{c.dot(c.p, c.ap)}
}

func (c *cg) update(iter int, _ []*grid.TensorField, total []float64) (float64, error) {
	pap := total[0]
	if pap <= 0 {
		return 0, fmt.Errorf("massif: CG breakdown (⟨p,Ap⟩ = %g); reference medium not admissible", pap)
	}
	alpha := c.rr / pap
	axpby(1, c.r.eps, alpha, c.p)
	axpby(1, c.res, -alpha, c.ap)
	rr, err := c.op.sum(iter, []float64{c.dot(c.res, c.res)})
	if err != nil {
		return 0, err
	}
	beta := rr[0] / c.rr
	c.rr = rr[0]
	axpby(beta, c.p, 1, c.res)
	return math.Sqrt(c.rr) / c.normB, nil
}

// dot is the rank's share of the C⁰-energy inner product with full-tensor
// off-diagonal weighting.
func (c *cg) dot(a, b []*grid.TensorField) float64 {
	sum := 0.0
	for j, f := range a {
		for i := range f.Dim.Len() {
			ta := f.AtIndex(i)
			cb := green.IsotropicStress(c.lambda0, c.mu0, b[j].AtIndex(i))
			for v := range grid.NumVoigt {
				sum += voigtWeight[v] * ta[v] * cb[v]
			}
		}
	}
	return sum
}

// axpby sets dst ← a·dst + b·x per box.
func axpby(a float64, dst []*grid.TensorField, b float64, x []*grid.TensorField) {
	for j, f := range dst {
		for v, d := range f.Comp {
			s := x[j].Comp[v].Data
			for i := range d.Data {
				d.Data[i] = a*d.Data[i] + b*s[i]
			}
		}
	}
}
