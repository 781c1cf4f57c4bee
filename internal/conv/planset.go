package conv

import (
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// PlanSet is the immutable transform machinery shared by every local
// pipeline on one grid (dim, workers): the 2D plane plan and the 1D z
// plan. Building it is the expensive part of NewLocal — twiddle tables,
// bit-reversal permutations, Bluestein chirps — and it is entirely
// read-only after construction, so one PlanSet can back any number of
// Locals of any sub-domain size running concurrently. The serving and
// fleet engines each build one at start and run every job over it.
type PlanSet struct {
	dim     grid.Dim3
	workers int
	plan2d  *fft.Plan2D
	planZ   *fft.Plan
}

// NewPlanSet builds the shared plans for an N³ grid. workers is
// normalized through fft.Workers, so two Configs that resolve to the same
// effective worker count share a set.
func NewPlanSet(dim grid.Dim3, workers int) (*PlanSet, error) {
	ps := &PlanSet{dim: dim, workers: fft.Workers(workers)}
	var err error
	if ps.plan2d, err = fft.NewPlan2D(dim.Nx, dim.Ny, workers); err != nil {
		return nil, err
	}
	if ps.planZ, err = fft.NewPlan(dim.Nz); err != nil {
		return nil, err
	}
	return ps, nil
}

// NewLocal builds a one-component pipeline for one sub-domain box on top
// of the shared plans. cfg must resolve to the set's effective worker count.
func (ps *PlanSet) NewLocal(sub grid.Box, tree *octree.Tree, pw Pointwise, cfg Config) (*Local, error) {
	return ps.NewLocalComponents(sub, tree, 1, pw, cfg)
}
