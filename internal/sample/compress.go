package sample

import (
	"fmt"
	"sync"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// Compressed is a convolution result stored in the paper's compressed
// form: octree metadata plus the flat sample array, instead of the dense
// N³ grid. This is the object exchanged between workers in the
// accumulation step.
type Compressed struct {
	Tree    *octree.Tree
	Samples []float64
}

// NewCompressed allocates sample storage sized for the tree.
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
	t.ForEachSample(func(cell, s, x, y, z int) {
		c.Samples[s] = f.At(x, y, z)
	})
	return c, nil
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
// (clipped to the grid) into dst. Workers reconstructing only their own
// sub-domains use this to skip cells that do not intersect their region.
func (c *Compressed) AddRegion(dst *grid.Field, region grid.Box, scale float64) error {
	sc := scratchPool.Get().(*lerpScratch)
	defer scratchPool.Put(sc)
	return c.addRegion(dst, region, scale, sc)
}

func (c *Compressed) addRegion(dst *grid.Field, region grid.Box, scale float64, sc *lerpScratch) error {
	if dst.Dim != c.Tree.Dim {
		return fmt.Errorf("sample: dst dims %v != tree dims %v", dst.Dim, c.Tree.Dim)
	}
	if len(c.Samples) != c.Tree.SampleCount() {
		return fmt.Errorf("sample: %d samples stored, tree needs %d", len(c.Samples), c.Tree.SampleCount())
	}
	region = region.Intersect(dst.Dim.Bounds())
	off := 0
	for _, cell := range c.Tree.Cells {
		n := cell.SampleCount()
		if clip := cell.Box.Intersect(region); !clip.Empty() {
			Patch{Cell: cell, Samples: c.Samples[off : off+n]}.addClip(dst, grid.Point{}, clip, scale, sc)
		}
		off += n
	}
	return nil
}

// Patch is one octree cell with its sample values — the unit of the sparse
// exchange between workers: a worker ships to each peer only the patches
// whose cells intersect that peer's output region.
type Patch struct {
	Cell    octree.Cell
	Samples []float64
}

// AddToRegion accumulates scale × the patch's trilinear reconstruction,
// restricted to region, into dst.
func (p Patch) AddToRegion(dst *grid.Field, region grid.Box, scale float64) error {
	sc := scratchPool.Get().(*lerpScratch)
	defer scratchPool.Put(sc)
	return p.addRegion(dst, grid.Point{}, region.Intersect(dst.Dim.Bounds()), scale, sc)
}

// addRegion accumulates the patch over region into dst, whose element
// (0, 0, 0) is grid point origin; region must lie inside dst.
func (p Patch) addRegion(dst *grid.Field, origin grid.Point, region grid.Box, scale float64, sc *lerpScratch) error {
	if len(p.Samples) != p.Cell.SampleCount() {
		return fmt.Errorf("sample: patch has %d samples, cell needs %d", len(p.Samples), p.Cell.SampleCount())
	}
	if clip := p.Cell.Box.Intersect(region); !clip.Empty() {
		p.addClip(dst, origin, clip, scale, sc)
	}
	return nil
}

// lerpScratch is the interpolation kernel's working memory: two
// y-interpolated planes of the clipped cell face and two x-interpolated
// lattice rows, 2·w·h + 2·w values. It only grows, and one serves a whole
// cell loop.
type lerpScratch struct{ buf []float64 }

var scratchPool = sync.Pool{New: func() any { return new(lerpScratch) }}

// lerpRow x-interpolates one lattice row over the len(out) voxels starting
// lx0 voxels into the cell: out[i] = (1−fx)·row[ix] + fx·row[ix+1].
func lerpRow(out, row []float64, lx0, r int, inv float64) {
	ix, rx := lx0/r, lx0%r
	for i := range out {
		fx := float64(float64(rx) * inv)
		out[i] = float64((1-fx)*row[ix]) + float64(fx*row[ix+1])
		if rx++; rx == r {
			rx, ix = 0, ix+1
		}
	}
}

// addClip trilinearly interpolates the cell's sample lattice over clip, a
// non-empty sub-box of the cell in grid coordinates, and accumulates
// scale × that into dst, whose element (0, 0, 0) is grid point origin.
//
// The interpolation is separable: a lattice row is x-interpolated over the
// clip's x range, two such rows blend into one line of a y-interpolated
// plane, and each output plane blends the two y-interpolated planes around
// it — the association order of the one-expression form
//
//	(1−fz)·((1−fy)·((1−fx)·s000 + fx·s100) + fy·(…)) + fz·((1−fy)·(…) + fy·(…))
//
// so every output is that expression's float64 operations on its operands,
// each row and plane computed once for the up to r rows and planes that
// share it. Products are explicitly rounded (float64(…)), so no
// architecture may fuse them into the adds and the bits are the same
// everywhere.
func (p Patch) addClip(dst *grid.Field, origin grid.Point, clip grid.Box, scale float64, sc *lerpScratch) {
	s, lo := p.Samples, p.Cell.Box.Lo
	r, m := p.Cell.Rate, p.Cell.LatticePoints()
	w, h, d := clip.Hi[0]-clip.Lo[0], clip.Hi[1]-clip.Lo[1], clip.Hi[2]-clip.Lo[2]
	lx0, ly0, lz0 := clip.Lo[0]-lo[0], clip.Lo[1]-lo[1], clip.Lo[2]-lo[2]
	nx, nxy := dst.Dim.Nx, dst.Dim.Nx*dst.Dim.Ny
	out := dst.Data[dst.Dim.Index(clip.Lo[0]-origin[0], clip.Lo[1]-origin[1], clip.Lo[2]-origin[2]):]
	if r == 1 {
		// Full resolution: samples are the values themselves.
		for z := 0; z < d; z++ {
			for y := 0; y < h; y++ {
				row := out[z*nxy+y*nx:][:w]
				for i, v := range s[((lz0+z)*m+ly0+y)*m+lx0:][:w] {
					row[i] += float64(scale * v)
				}
			}
		}
		return
	}
	if n := 2*w*h + 2*w; cap(sc.buf) < n {
		sc.buf = make([]float64, n)
	}
	p0, p1 := sc.buf[:w*h], sc.buf[w*h:2*w*h]
	rowA, rowB := sc.buf[2*w*h:][:w], sc.buf[2*w*h+w:][:w]
	inv := 1 / float64(r)

	// lerpPlane fills plane with lattice plane iz, x- and y-interpolated
	// over the clip's face. The endpoint row and plane are always stored,
	// so iy+1 and iz+1 ≤ m−1 wherever a voxel still needs them.
	lerpPlane := func(plane []float64, iz int) {
		lat := s[iz*m*m:]
		iy, ry := ly0/r, ly0%r
		a, b := rowA, rowB
		lerpRow(a, lat[iy*m:], lx0, r, inv)
		lerpRow(b, lat[(iy+1)*m:], lx0, r, inv)
		for y := 0; y < h; y++ {
			fy := float64(float64(ry) * inv)
			gy := 1 - fy
			line := plane[y*w:][:w]
			for i := range line {
				line[i] = float64(gy*a[i]) + float64(fy*b[i])
			}
			if ry++; ry == r && y+1 < h {
				ry, iy = 0, iy+1
				a, b = b, a
				lerpRow(b, lat[(iy+1)*m:], lx0, r, inv)
			}
		}
	}

	iz, rz := lz0/r, lz0%r
	lerpPlane(p0, iz)
	lerpPlane(p1, iz+1)
	for z := 0; z < d; z++ {
		fz := float64(float64(rz) * inv)
		gz := 1 - fz
		for y := 0; y < h; y++ {
			row := out[z*nxy+y*nx:][:w]
			a, b := p0[y*w:][:w], p1[y*w:][:w]
			for i := range row {
				row[i] += float64(scale * (float64(gz*a[i]) + float64(fz*b[i])))
			}
		}
		if rz++; rz == r && z+1 < d {
			rz, iz = 0, iz+1
			p0, p1 = p1, p0
			lerpPlane(p1, iz+1)
		}
	}
}

// NearestReconstruct reconstructs using nearest-lattice-point values
// instead of trilinear interpolation — the interpolation ablation
// baseline.
func (c *Compressed) NearestReconstruct() (*grid.Field, error) {
	if len(c.Samples) != c.Tree.SampleCount() {
		return nil, fmt.Errorf("sample: %d samples stored, tree needs %d", len(c.Samples), c.Tree.SampleCount())
	}
	out := grid.NewField(c.Tree.Dim)
	offsets := c.Tree.CellOffsets()
	for ci, cell := range c.Tree.Cells {
		s := c.Samples[offsets[ci]:]
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
