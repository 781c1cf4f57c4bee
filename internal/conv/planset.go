package conv

import (
	"sync"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// PlanSet is the immutable transform machinery shared by every local
// pipeline on one grid (dim, workers): the one length-N plan all three
// axes of the cubic grid run on. Building it is the expensive part of
// NewLocal — twiddle table, bit-reversal permutation, Bluestein chirp —
// and it is entirely read-only after construction, so one PlanSet can back
// any number of Locals of any sub-domain size running concurrently. The
// serving and fleet engines each build one at start and run every job
// over it. Next to the plan it memoizes the sampling geometry of each
// policy's origin box (NewPolicyLocal), immutable once built.
type PlanSet struct {
	dim     grid.Dim3
	workers int
	plan    *fft.Plan
	geoms   sync.Map // sample.Policy with Sub at the origin → *geometry
}

// NewPlanSet builds the shared plan for an N³ grid. workers is
// normalized through fft.Workers, so two Configs that resolve to the same
// effective worker count share a set.
func NewPlanSet(dim grid.Dim3, workers int) (*PlanSet, error) {
	plan, err := fft.NewPlan(dim.Nx)
	if err != nil {
		return nil, err
	}
	return &PlanSet{dim: dim, workers: fft.Workers(workers), plan: plan}, nil
}

// NewLocal builds a one-component pipeline for one sub-domain box on top
// of the shared plan. cfg must resolve to the set's effective worker count.
func (ps *PlanSet) NewLocal(sub grid.Box, tree *octree.Tree, pw Pointwise, cfg Config) (*Local, error) {
	return ps.NewLocalComponents(sub, tree, 1, pw, cfg)
}
