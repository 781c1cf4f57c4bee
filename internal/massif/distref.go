package massif

import (
	"fmt"
	"math"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

// SolveReferenceDistributed runs the paper's Algorithm 1 the way legacy
// MASSIF deployments do (§2.2: "a parallel FFTW MPI implementation of
// MASSIF"): strain and stress live as z-slabs across P workers, and every
// iteration performs one slab transpose per transform direction per tensor
// component — 2 all-to-alls × 6 components = 12 collectives per iteration,
// the communication Algorithm 2 collapses to a single sparse exchange.
// Numerically identical to the serial SolveReference.
func SolveReferenceDistributed(c *cluster.Cluster, m *Microstructure, E grid.SymTensor, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := m.Dim.Nx
	if m.Dim.Ny != n || m.Dim.Nz != n {
		return nil, fmt.Errorf("massif: grid %v must be cubic", m.Dim)
	}
	if n%c.P != 0 {
		return nil, fmt.Errorf("massif: grid size %d not divisible by %d workers", n, c.P)
	}
	normE := E.Norm() * math.Sqrt(float64(m.Dim.Len()))
	if normE == 0 {
		return nil, fmt.Errorf("massif: applied strain must be nonzero")
	}
	lambda0, mu0 := m.ReferenceMedium()
	op := gammaOp(m.Dim, green.Gamma{Lambda0: lambda0, Mu0: mu0})
	zPer := n / c.P
	plan2d, err := fft.NewPlan2D(n, n, 1)
	if err != nil {
		return nil, err
	}
	planZ, err := fft.NewPlan(n)
	if err != nil {
		return nil, err
	}

	strain := grid.NewTensorField(m.Dim)
	stress := grid.NewTensorField(m.Dim)
	res := &Result{Strain: strain, Stress: stress}

	err = c.Run(func(w *cluster.Worker) error {
		// Per-component local strain slabs, z ∈ [z0, z0+zPer): the worker's
		// own planes of the result, which no other worker touches.
		off := w.ID * zPer * n * n
		eps := make([][]float64, grid.NumVoigt)
		for v := range eps {
			eps[v] = strain.Comp[v].Data[off : off+n*n*zPer]
			for i := range eps[v] {
				eps[v][i] = E[v]
			}
		}
		slabs := make([][]complex128, grid.NumVoigt)
		ySlabs := make([][]complex128, grid.NumVoigt)
		for v := range slabs {
			slabs[v] = make([]complex128, n*n*zPer)
		}
		lines := make([][]complex128, grid.NumVoigt) // the six z-lines of one (kx, ky)
		for v := range lines {
			lines[v] = make([]complex128, n)
		}
		var epsT grid.SymTensor

		for iter := 0; iter < opt.MaxIter; iter++ {
			// σ = C:ε locally, loaded into the complex slabs.
			for i := range eps[0] {
				for v := range epsT {
					epsT[v] = eps[v][i]
				}
				for v, s := range m.StressIndex(off+i, epsT) {
					slabs[v][i] = complex(s, 0)
				}
			}
			// Forward: local 2D FFTs, then one transpose per component.
			for v := 0; v < grid.NumVoigt; v++ {
				for zi := 0; zi < zPer; zi++ {
					if err := plan2d.ForwardPlane(slabs[v][zi*n*n : (zi+1)*n*n]); err != nil {
						return err
					}
				}
				var err error
				ySlabs[v], err = w.TransposeZY(slabs[v], n, zPer, false)
				if err != nil {
					return err
				}
			}
			// z-direction FFTs, the Γ̂ contraction, inverse z FFTs — all
			// local to the worker's ky range (y-slab layout:
			// idx = z·n·zPer + yi·n + kx). The lines' copies in and out go
			// through planZ.Perm, so the transforms skip their reorders.
			y0 := w.ID * zPer
			perm := planZ.Perm()
			for yi := 0; yi < zPer; yi++ {
				for kx := 0; kx < n; kx++ {
					at := yi*n + kx
					for v, line := range lines {
						for i, z := range perm {
							line[i] = ySlabs[v][int(z)*n*zPer+at]
						}
						if err := planZ.ForwardFromPerm(line); err != nil {
							return err
						}
					}
					op(kx, y0+yi, lines)
					for v, line := range lines {
						if err := planZ.InverseToPerm(line); err != nil {
							return err
						}
						for i, z := range perm {
							ySlabs[v][int(z)*n*zPer+at] = line[i]
						}
					}
				}
			}
			// Inverse: transpose back per component, local inverse 2D FFTs.
			for v := 0; v < grid.NumVoigt; v++ {
				var err error
				slabs[v], err = w.TransposeZY(ySlabs[v], n, zPer, true)
				if err != nil {
					return err
				}
				for zi := 0; zi < zPer; zi++ {
					if err := plan2d.InversePlane(slabs[v][zi*n*n : (zi+1)*n*n]); err != nil {
						return err
					}
				}
			}
			// ε ← ε − Δε with a global residual all-reduce.
			local := 0.0
			for v := 0; v < grid.NumVoigt; v++ {
				wgt := 1.0
				if v >= grid.VYZ {
					wgt = 2.0
				}
				ev := eps[v]
				sv := slabs[v]
				for i := range ev {
					d := real(sv[i])
					ev[i] -= d
					local += wgt * d * d
				}
			}
			total, err := w.AllReduceSum([]float64{local})
			if err != nil {
				return err
			}
			r := math.Sqrt(total[0]) / normE
			if w.ID == 0 {
				res.Residuals = append(res.Residuals, r)
				res.Iterations, res.Converged = iter+1, r < opt.Tol
			}
			if r < opt.Tol {
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if _, err := m.StressField(strain, stress); err != nil {
		return nil, err
	}
	return res, nil
}
