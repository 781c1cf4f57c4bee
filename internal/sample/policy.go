// Package sample implements the paper's adaptive multi-resolution sampling
// compression (§3.2 steps 3–4, §5.4): a distance-based rate policy around
// the convolved sub-domain, octree-backed compressed storage of the
// convolution result, and trilinear reconstruction for the accumulation
// step.
package sample

import (
	"fmt"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// Policy is the paper's heuristic sampling strategy (§5.4): "we use r=2
// for distance k/2 from sub-domain, increase it to r=8 for distance >k/2
// and <4k, and set it to high values like r=16 or 32 beyond", with the
// sub-domain itself "always sampled at full resolution". Distances are
// measured on the torus, as the cyclic convolution sees them: a box on one
// face of the grid has its near shell wrap onto the opposite face.
type Policy struct {
	Sub      grid.Box // the k×k×k sub-domain, sampled at rate 1
	NearRate int      // rate within Chebyshev distance k/2 of the sub-domain
	MidRate  int      // rate within distance 4k
	FarRate  int      // rate beyond 4k

	// MinCell bounds the uniformity subdivision: cells at this size stop
	// splitting and take the finest rate present inside them (0 selects
	// the default of 4). Without the bound, a rate boundary that falls on
	// an odd coordinate — e.g. Chebyshev distance 4k from a sub-domain
	// whose face sits at an odd offset — shatters its entire shell into
	// unit cells whose endpoint lattices cost more samples than the
	// dense grid they replace.
	MinCell int
}

// DefaultPolicy returns the paper's §5.4 hyperparameters for sub-domain
// box sub with far-field rate far (16 or 32 in the paper).
func DefaultPolicy(sub grid.Box, far int) Policy {
	return Policy{Sub: sub, NearRate: 2, MidRate: 8, FarRate: far, MinCell: 4}
}

// Validate checks that all rates are positive powers of two.
func (p Policy) Validate() error {
	for _, r := range []int{p.NearRate, p.MidRate, p.FarRate} {
		if r < 1 || r&(r-1) != 0 {
			return fmt.Errorf("sample: rate %d must be a positive power of two", r)
		}
	}
	if p.Sub.Empty() {
		return fmt.Errorf("sample: empty sub-domain box")
	}
	return nil
}

// K returns the sub-domain edge length.
func (p Policy) K() int { return p.Sub.Hi[0] - p.Sub.Lo[0] }

func (p Policy) baseRate(dist int) int {
	k := p.K()
	switch {
	case dist <= k/2:
		return p.NearRate
	case dist < 4*k:
		return p.MidRate
	default:
		return p.FarRate
	}
}

// RateFunc adapts the policy to the octree builder: it returns the uniform
// rate of a candidate cell, or 0 when the cell straddles a rate boundary
// and must be subdivided.
func (p Policy) RateFunc(d grid.Dim3) octree.RateFunc {
	minCell := p.MinCell
	if minCell <= 0 {
		minCell = 4
	}
	return func(b grid.Box) int {
		if p.Sub.ContainsBox(b) {
			return 1
		}
		if p.Sub.Overlaps(b) {
			return 0 // partially inside the sub-domain: split
		}
		dmin, dmax := p.Sub.TorusDistRange(d, b)
		base := p.baseRate(dmin) // the finer of the straddled rates
		if base != p.baseRate(dmax) && b.Hi[0]-b.Lo[0] > minCell {
			return 0
		}
		return base
	}
}

// Tree builds the policy's octree over grid d.
func (p Policy) Tree(d grid.Dim3) (*octree.Tree, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t, err := octree.Build(d, p.RateFunc(d))
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Uniform is a trivial policy sampling the whole grid at one rate — the
// "uniform downsampling" baseline of the octree-vs-uniform ablation.
type Uniform struct {
	Rate     int
	CellSize int // octree cell granularity; 0 means one cell per 2·Rate block
}

// Tree builds a flat octree at the uniform rate.
func (u Uniform) Tree(d grid.Dim3) (*octree.Tree, error) {
	if u.Rate < 1 || u.Rate&(u.Rate-1) != 0 {
		return nil, fmt.Errorf("sample: uniform rate %d must be a positive power of two", u.Rate)
	}
	cs := u.CellSize
	if cs == 0 {
		cs = 2 * u.Rate
		if cs > d.Nx {
			cs = d.Nx
		}
	}
	return octree.Build(d, func(b grid.Box) int {
		if b.Hi[0]-b.Lo[0] > cs {
			return 0
		}
		return u.Rate
	})
}
