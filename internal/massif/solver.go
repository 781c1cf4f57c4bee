package massif

import (
	"fmt"
	"math"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
)

// Options tunes the fixed-point solvers.
type Options struct {
	Tol     float64 // convergence threshold on ‖Δε‖/‖E‖ (default 1e-8)
	MaxIter int     // iteration cap (default 500)
	Workers int     // FFT parallelism (≤0: GOMAXPROCS)

	// Trace, when non-nil, records one "massif.iteration" span per
	// fixed-point iteration plus the "massif.iterations" counter (rank 0's
	// in the distributed low-comm solves); the full-grid solvers also
	// propagate it into their 3D FFT plan (axis sweeps and worker lanes).
	// Nil disables recording.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	return o
}

// Result is a converged (or iteration-capped) stress–strain solution.
type Result struct {
	Strain     *grid.TensorField
	Stress     *grid.TensorField
	Iterations int
	Converged  bool
	Residuals  []float64 // ‖Δε‖/‖E‖ per iteration
}

// MeanStress returns the volume-average stress tensor — the quantity
// homogenization studies report (effective response).
func (r *Result) MeanStress() grid.SymTensor { return r.Stress.Mean() }

// SolveReference runs the paper's Algorithm 1 — the traditional
// Moulinec–Suquet basic scheme with full-grid FFTs of all six stress
// components each iteration:
//
//	σ̂ ← FFT(C(x):ε),  Δε̂ ← Γ̂⁰:σ̂ (ξ≠0),  ε ← ε − iFFT(Δε̂),
//
// with the mean strain pinned to the applied E. This is the baseline whose
// all-to-all transposes the proposed method eliminates.
func SolveReference(m *Microstructure, E grid.SymTensor, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	lambda0, mu0 := m.ReferenceMedium()
	step, spectra, err := gammaStep(m, green.Gamma{Lambda0: lambda0, Mu0: mu0}, opt)
	if err != nil {
		return nil, err
	}
	eps := grid.NewTensorField(m.Dim)
	eps.Fill(E)
	stress := grid.NewTensorField(m.Dim)
	res := &Result{Strain: eps, Stress: stress}
	// Residuals are ‖Δε‖ relative to ‖ε⁰‖ = ‖E‖·√N³, the norm of the
	// uniform initial strain field (the standard relative criterion).
	normE := E.Norm() * math.Sqrt(float64(m.Dim.Len()))
	if normE == 0 {
		return nil, fmt.Errorf("massif: applied strain must be nonzero")
	}

	iterC := opt.Trace.Counter("massif.iterations")
	iterH := opt.Trace.Histogram("massif.iteration_seconds")
	for iter := 0; iter < opt.MaxIter; iter++ {
		iterSpan := opt.Trace.Start("massif.iteration")
		iterC.Add(1)
		if err := step(func(i int) grid.SymTensor { return m.StressIndex(i, eps.AtIndex(i)) }); err != nil {
			iterSpan.End()
			return nil, err
		}
		// Update ε ← ε − Δε and measure the correction norm.
		delta2 := 0.0
		for v := 0; v < grid.NumVoigt; v++ {
			w := 1.0
			if v >= grid.VYZ {
				w = 2.0
			}
			dat := eps.Comp[v].Data
			for i := range dat {
				d := real(spectra[v].Data[i])
				dat[i] -= d
				delta2 += w * d * d
			}
		}
		r := math.Sqrt(delta2) / normE
		res.Residuals = append(res.Residuals, r)
		res.Iterations = iter + 1
		iterH.Observe(iterSpan.End())
		if r < opt.Tol {
			res.Converged = true
			break
		}
	}
	if _, err := m.StressField(eps, stress); err != nil {
		return nil, err
	}
	return res, nil
}

// gammaStep builds the dense Γ̂ step of the full-grid solvers (Algorithm 1
// steps 2–5): step loads the six components of field(i) at every voxel i,
// transforms them forward, contracts every (kx, ky) z-line with gammaOp, a
// tile of fft.Tile ky at a time —
// the zero mode maps to zero, so the mean strain stays E — and transforms
// back, in place; Γ̂∗field is then the real parts of spectra.
func gammaStep(m *Microstructure, gamma green.Gamma, opt Options) (step func(field func(i int) grid.SymTensor) error, spectra []*grid.ComplexField, err error) {
	plan, err := fft.NewPlan3D(m.Dim, opt.Workers)
	if err != nil {
		return nil, nil, err
	}
	plan.SetTrace(opt.Trace)
	d := m.Dim
	op := gammaOp(d, gamma)
	spectra = make([]*grid.ComplexField, grid.NumVoigt)
	tiles := make([][]complex128, grid.NumVoigt)
	for v := range spectra {
		spectra[v] = grid.NewComplexField(d)
		tiles[v] = make([]complex128, fft.Tile*d.Nz)
	}
	step = func(field func(i int) grid.SymTensor) error {
		for i := range d.Len() {
			for v, x := range field(i) {
				spectra[v].Data[i] = complex(x, 0)
			}
		}
		for _, s := range spectra {
			if err := plan.Forward(s); err != nil {
				return err
			}
		}
		for ky0 := 0; ky0 < d.Ny; ky0 += fft.Tile {
			pencils := min(fft.Tile, d.Ny-ky0)
			for kx := 0; kx < d.Nx; kx++ {
				for v, t := range tiles {
					for kz := range d.Nz {
						for j := range pencils {
							t[fft.Tile*kz+j] = spectra[v].Data[d.Index(kx, ky0+j, kz)]
						}
					}
				}
				op(kx, ky0, tiles)
				for v, t := range tiles {
					for kz := range d.Nz {
						for j := range pencils {
							spectra[v].Data[d.Index(kx, ky0+j, kz)] = t[fft.Tile*kz+j]
						}
					}
				}
			}
		}
		for _, s := range spectra {
			if err := plan.Inverse(s); err != nil {
				return err
			}
		}
		return nil
	}
	return step, spectra, nil
}
