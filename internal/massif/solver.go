package massif

import (
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
)

// Options tunes the fixed-point solvers.
type Options struct {
	Tol     float64 // convergence threshold on ‖Δε‖/‖E‖ (default 1e-8)
	MaxIter int     // iteration cap (default 500)
	Workers int     // FFT parallelism (≤0: GOMAXPROCS)

	// Trace, when non-nil, records one "massif.iteration" span and
	// "massif.iteration_seconds" sample per fixed-point iteration plus the
	// "massif.iterations" counter (rank 0's in the distributed solves); the
	// full-grid solvers also propagate it into their 3D FFT plan (axis
	// sweeps and worker lanes). Nil disables recording.
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
// all-to-all transposes the proposed method eliminates. It is the one loop
// with the dense operator and the basic rule.
func SolveReference(m *Microstructure, E grid.SymTensor, opt Options) (*Result, error) {
	return solveDense(m, E, opt, func(s *solve, r *rank, _ operator) (rule, error) { return basic{s, r}, nil })
}

// solveDense runs the one loop on one rank that owns the whole grid, with
// the dense operator and the rule newRule builds.
func solveDense(m *Microstructure, E grid.SymTensor, opt Options, newRule func(*solve, *rank, operator) (rule, error)) (*Result, error) {
	s, err := newSolve(m, E, opt)
	if err != nil {
		return nil, err
	}
	op, err := newDense(m, s.o)
	if err != nil {
		return nil, err
	}
	r := newRank(0, m, []grid.Box{m.Dim.Bounds()}, E)
	rl, err := newRule(s, r, op)
	if err != nil {
		return nil, err
	}
	if err := s.run(r, op, rl, 0); err != nil {
		return nil, err
	}
	return s.finish()
}

// dense is Algorithm 1's Γ̂ (steps 2–5) on one rank that owns the whole
// grid: the six components of its input transformed forward, every (kx, ky)
// z-line contracted with gammaOp, a tile of fft.Tile kx at a time (the zero
// mode maps to zero), and transformed back in place.
type dense struct {
	one
	plan    *fft.Plan3D
	op      conv.Pointwise
	spectra []*grid.ComplexField
	tiles   [][]complex128
}

func newDense(m *Microstructure, opt Options) (*dense, error) {
	plan, err := fft.NewPlan3D(m.Dim, opt.Workers)
	if err != nil {
		return nil, err
	}
	plan.SetTrace(opt.Trace)
	o := &dense{plan: plan, op: gammaOp(m.Dim, m.gamma())}
	for range grid.NumVoigt {
		o.spectra = append(o.spectra, grid.NewComplexField(m.Dim))
		o.tiles = append(o.tiles, make([]complex128, fft.Tile*m.Dim.Nz))
	}
	return o, nil
}

func (o *dense) apply(_ int, in func(b, i, g int) grid.SymTensor, out []*grid.TensorField) error {
	d := o.plan.Dim()
	for i := range d.Len() {
		for v, x := range in(0, i, i) {
			o.spectra[v].Data[i] = complex(x, 0)
		}
	}
	for _, s := range o.spectra {
		if err := o.plan.Forward(s); err != nil {
			return err
		}
	}
	for ky := range d.Ny {
		for kx0 := 0; kx0 < d.Nx; kx0 += fft.Tile {
			pencils := min(fft.Tile, d.Nx-kx0)
			for v, t := range o.tiles {
				for kz := range d.Nz {
					for j := range pencils {
						t[fft.Tile*kz+j] = o.spectra[v].Data[d.Index(kx0+j, ky, kz)]
					}
				}
			}
			o.op(kx0, ky, o.tiles)
			for v, t := range o.tiles {
				for kz := range d.Nz {
					for j := range pencils {
						o.spectra[v].Data[d.Index(kx0+j, ky, kz)] = t[fft.Tile*kz+j]
					}
				}
			}
		}
	}
	for v, s := range o.spectra {
		if err := o.plan.Inverse(s); err != nil {
			return err
		}
		dst := out[0].Comp[v].Data
		for i, x := range s.Data {
			dst[i] = real(x)
		}
	}
	return nil
}
