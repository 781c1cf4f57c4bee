package sample

import (
	"fmt"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// Compressed is a convolution result stored in the paper's compressed
// form: octree metadata plus the flat sample array, instead of the dense
// N³ grid. This is the object exchanged between workers in the
// accumulation step. Samples holds each distinct sampled grid point once,
// in the tree's storage order; a cell's closed lattice reads them through
// Tree.Index().
type Compressed struct {
	Tree    *octree.Tree
	Samples []float64
}

// NewCompressed allocates sample storage sized for the tree: one value per
// distinct sampled point.
func NewCompressed(t *octree.Tree) *Compressed {
	return &Compressed{Tree: t, Samples: make([]float64, t.SampleCount())}
}

// Compress gathers the tree's sample lattice from a dense field. The
// pipeline normally fills samples directly during the inverse transform;
// Compress is the reference path used by tests and the baseline.
func Compress(f *grid.Field, t *octree.Tree) (*Compressed, error) {
	if f.Dim != t.Dim {
		return nil, fmt.Errorf("sample: field dims %v != tree dims %v", f.Dim, t.Dim)
	}
	c := NewCompressed(t)
	t.ForEachPoint(func(_, s, x, y, z int) {
		c.Samples[s] = f.At(x, y, z)
	})
	return c, nil
}

// AppendLattice appends cell i's closed lattice to dst, in slot order:
// the per-cell view of the stored samples, shared points repeated.
func (c *Compressed) AppendLattice(dst []float64, i int) []float64 {
	for _, s := range c.Tree.Index().Cell(i) {
		dst = append(dst, c.Samples[s])
	}
	return dst
}

// MemoryBytes returns the storage footprint: 8 bytes per sample plus the
// octree metadata.
func (c *Compressed) MemoryBytes() int {
	return 8*len(c.Samples) + c.Tree.MetadataBytes()
}

// CompressionRatio returns dense bytes / compressed bytes.
func (c *Compressed) CompressionRatio() float64 {
	return float64(8*c.Tree.Dim.Len()) / float64(c.MemoryBytes())
}

// Reconstruct interpolates the compressed samples back to a dense field
// using trilinear interpolation within each octree cell (rate-1 cells copy
// their samples verbatim).
func (c *Compressed) Reconstruct() (*grid.Field, error) {
	out := grid.NewField(c.Tree.Dim)
	if err := c.AddTo(out, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// AddTo accumulates scale × the reconstructed field into dst. This is the
// paper's accumulation primitive: each worker adds the interpolated
// contributions of every sub-domain's compressed result into its local
// region (Algorithm 2 line 6).
func (c *Compressed) AddTo(dst *grid.Field, scale float64) error {
	return c.AddRegion(dst, c.Tree.Dim.Bounds(), scale)
}

// AddRegion accumulates scale × the reconstruction restricted to region
// (clipped to the grid) into dst: AddResults with one result.
func (c *Compressed) AddRegion(dst *grid.Field, region grid.Box, scale float64) error {
	return AddResults(dst, region, []*Compressed{c}, scale)
}

// Patch is one octree cell and the values of its closed lattice — the
// unit AddPatches sums: a worker adds every received cell that intersects
// its output region. Slot j's value is Samples[View[j]]: on a result's
// storage the view is its tree's index (octree.Index.Cell), on a received
// message the exchange's view into the values sent.
type Patch struct {
	Cell    octree.Cell
	Samples []float64
	View    []int32
}

// NearestReconstruct reconstructs using nearest-lattice-point values
// instead of trilinear interpolation — the interpolation ablation
// baseline.
func (c *Compressed) NearestReconstruct() (*grid.Field, error) {
	if len(c.Samples) != c.Tree.SampleCount() {
		return nil, fmt.Errorf("sample: %d samples stored, tree needs %d", len(c.Samples), c.Tree.SampleCount())
	}
	out := grid.NewField(c.Tree.Dim)
	var s []float64
	for ci, cell := range c.Tree.Cells {
		s = c.AppendLattice(s[:0], ci)
		r := cell.Rate
		m := cell.LatticePoints()
		cell.Box.ForEach(func(x, y, z int) {
			ix := (x - cell.Box.Lo[0] + r/2) / r
			iy := (y - cell.Box.Lo[1] + r/2) / r
			iz := (z - cell.Box.Lo[2] + r/2) / r
			out.Set(x, y, z, s[(iz*m+iy)*m+ix])
		})
	}
	return out, nil
}
