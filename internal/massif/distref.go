package massif

import (
	"fmt"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
)

// SolveReferenceDistributed runs the paper's Algorithm 1 the way legacy
// MASSIF deployments do (§2.2: "a parallel FFTW MPI implementation of
// MASSIF"): strain and stress live as z-slabs across P workers, and every
// iteration performs one slab transpose per transform direction per tensor
// component — 2 all-to-alls × 6 components = 12 collectives per iteration,
// the communication Algorithm 2 collapses to a single sparse exchange.
// Every worker runs the one loop on its slab; it equals SolveReference to
// round-off.
func SolveReferenceDistributed(c *cluster.Cluster, m *Microstructure, E grid.SymTensor, opt Options) (*Result, error) {
	n := m.Dim.Nx
	if m.Dim.Ny != n || m.Dim.Nz != n {
		return nil, fmt.Errorf("massif: grid %v must be cubic", m.Dim)
	}
	if n%c.P != 0 {
		return nil, fmt.Errorf("massif: grid size %d not divisible by %d workers", n, c.P)
	}
	s, err := newSolve(m, E, opt)
	if err != nil {
		return nil, err
	}
	convolve, err := cluster.SlabConvolver(n, c.P, gammaOp(m.Dim, m.gamma()))
	if err != nil {
		return nil, err
	}
	err = c.Run(func(w *cluster.Worker) error {
		o := &slabs{w: w, conv: convolve}
		for range grid.NumVoigt {
			o.planes = append(o.planes, make([]complex128, n*n*n/c.P))
		}
		// The worker's own z planes, which no other worker touches.
		r := newRank(w.ID, m, []grid.Box{grid.BoxAt(grid.Point{0, 0, w.ID * n / c.P}, n, n, n/c.P)}, E)
		return s.run(r, o, basic{s, r}, 0)
	})
	if err != nil {
		return nil, err
	}
	return s.finish()
}

// slabs is the slab-decomposed Γ̂ on one worker: the six components of its
// z planes through cluster.SlabConvolver with Γ̂ as the pointwise stage.
type slabs struct {
	w      *cluster.Worker
	conv   func(*cluster.Worker, [][]complex128) error
	planes [][]complex128
}

func (o *slabs) apply(_ int, in func(b, i, g int) grid.SymTensor, out []*grid.TensorField) error {
	off := o.w.ID * len(o.planes[0]) // the slab's first voxel
	for i := range o.planes[0] {
		for v, x := range in(0, i, off+i) {
			o.planes[v][i] = complex(x, 0)
		}
	}
	if err := o.conv(o.w, o.planes); err != nil {
		return err
	}
	for v, p := range o.planes {
		for i, x := range p {
			out[0].Comp[v].Data[i] = real(x)
		}
	}
	return nil
}

func (o *slabs) sum(_ int, x []float64) ([]float64, error) { return o.w.AllReduceSum(x) }
