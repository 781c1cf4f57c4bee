package massif

import (
	"fmt"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
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
	zPer := n / c.P
	plan2d, err := fft.NewPlan2D(n, n, 1)
	if err != nil {
		return nil, err
	}
	planZ, err := fft.NewPlan(n)
	if err != nil {
		return nil, err
	}
	// A z tile's rows in the staging tile of its pencils' natural-order
	// lines: position i holds element Perm()[i] of each pencil.
	at := make([]int32, n)
	for i, z := range planZ.Perm() {
		at[i] = fft.Tile * z
	}
	zRows, err := planZ.Rows(at)
	if err != nil {
		return nil, err
	}
	op := gammaOp(m.Dim, m.gamma())
	err = c.Run(func(w *cluster.Worker) error {
		o := &slabs{w: w, n: n, zPer: zPer, plan2d: plan2d, planZ: planZ, zRows: zRows, op: op,
			stage: make([]complex128, fft.Tile*n), line: make([]complex128, n)}
		for range grid.NumVoigt {
			o.slabs = append(o.slabs, make([]complex128, n*n*zPer))
			o.tiles = append(o.tiles, make([]complex128, fft.Tile*n))
		}
		// The worker's own z planes, which no other worker touches.
		r := newRank(w.ID, m, []grid.Box{grid.BoxAt(grid.Point{0, 0, w.ID * zPer}, n, n, zPer)}, E)
		return s.run(r, o, basic{s, r}, 0)
	})
	if err != nil {
		return nil, err
	}
	return s.finish()
}

// slabs is the slab-decomposed Γ̂ on one worker: local 2D FFTs of its z
// planes, one transpose per component to y slabs, the z transforms and the
// Γ̂ contraction, and back. tiles are the six component tiles of one kx and
// fft.Tile ky, stage the tile their lines are gathered into and scattered
// from, and line the tile transforms' scratch line.
type slabs struct {
	w           *cluster.Worker
	n, zPer     int
	plan2d      *fft.Plan2D
	planZ       *fft.Plan
	zRows       fft.Rows
	op          conv.Pointwise
	slabs       [][]complex128
	tiles       [][]complex128
	stage, line []complex128
}

func (o *slabs) apply(_ int, in func(b, i, g int) grid.SymTensor, out []*grid.TensorField) error {
	n, zPer, w := o.n, o.zPer, o.w
	ySlabs, off := make([][]complex128, grid.NumVoigt), w.ID*zPer*n*n // the slab's first voxel
	for i := range n * n * zPer {
		for v, x := range in(0, i, off+i) {
			o.slabs[v][i] = complex(x, 0)
		}
	}
	// Forward: local 2D FFTs, then one transpose per component.
	for v := 0; v < grid.NumVoigt; v++ {
		for zi := 0; zi < zPer; zi++ {
			if err := o.plan2d.ForwardPlane(o.slabs[v][zi*n*n : (zi+1)*n*n]); err != nil {
				return err
			}
		}
		var err error
		ySlabs[v], err = w.TransposeZY(o.slabs[v], n, zPer, false)
		if err != nil {
			return err
		}
	}
	// z-direction FFTs, the Γ̂ contraction, inverse z FFTs — all local to
	// the worker's ky range (y-slab layout: idx = z·n·zPer + yi·n + kx),
	// fft.Tile ky at a time. A tile's lines are staged in natural order and
	// read and written through zRows, so the transforms skip their
	// reorders. Where Tile does not divide zPer the last tile's spare
	// pencils carry stale values, which are not scattered back.
	y0 := w.ID * zPer
	for yi0 := 0; yi0 < zPer; yi0 += fft.Tile {
		pencils := min(fft.Tile, zPer-yi0)
		for kx := 0; kx < n; kx++ {
			for v, t := range o.tiles {
				for z := 0; z < n; z++ {
					col := ySlabs[v][z*n*zPer+yi0*n+kx:]
					for j := range pencils {
						o.stage[fft.Tile*z+j] = col[j*n]
					}
				}
				if err := o.planZ.TileForward(t, o.stage, o.zRows, o.line); err != nil {
					return err
				}
			}
			o.op(kx, y0+yi0, o.tiles)
			for v, t := range o.tiles {
				if err := o.planZ.TileInverse(t, o.stage, o.zRows, o.line); err != nil {
					return err
				}
				for z := 0; z < n; z++ {
					col := ySlabs[v][z*n*zPer+yi0*n+kx:]
					for j := range pencils {
						col[j*n] = o.stage[fft.Tile*z+j]
					}
				}
			}
		}
	}
	// Inverse: transpose back per component, local inverse 2D FFTs.
	for v := 0; v < grid.NumVoigt; v++ {
		var err error
		o.slabs[v], err = w.TransposeZY(ySlabs[v], n, zPer, true)
		if err != nil {
			return err
		}
		for zi := 0; zi < zPer; zi++ {
			if err := o.plan2d.InversePlane(o.slabs[v][zi*n*n : (zi+1)*n*n]); err != nil {
				return err
			}
		}
		dst := out[0].Comp[v].Data
		for i, x := range o.slabs[v] {
			dst[i] = real(x)
		}
	}
	return nil
}

func (o *slabs) sum(_ int, x []float64) ([]float64, error) { return o.w.AllReduceSum(x) }
