package sample

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// AddResults accumulates scale × the sum of the results' trilinear
// reconstructions, restricted to region (clipped to the grid), into dst —
// the paper's accumulation step (Algorithm 2 line 6). A voxel's value
// depends on the order of results, never on how the caller cuts the grid
// into regions.
func AddResults(dst *grid.Field, region grid.Box, results []*Compressed, scale float64) error {
	bs := sumPool.Get().(*blockSum)
	defer sumPool.Put(bs)
	return bs.add(dst, grid.Point{}, region, addends{results: results}, scale)
}

// AddPatches is AddResults over patches, into dst whose element (0, 0, 0)
// is grid point origin: what a worker does with the patches it received.
func AddPatches(dst *grid.Field, origin grid.Point, region grid.Box, ps []Patch, scale float64) error {
	bs := sumPool.Get().(*blockSum)
	defer sumPool.Put(bs)
	return bs.add(dst, origin, region, addends{ps: ps}, scale)
}

var sumPool = sync.Pool{New: func() any { return new(blockSum) }}

// addends is what the kernel sums, in order: whole results, or patches.
type addends struct {
	results []*Compressed
	ps      []Patch
}

// each calls f, in order, with every addend cell that meets the z-range
// [z0, z1), the samples s it reads and its closed lattice view v: slot j's
// value is s[v[j]]. A result's view is its tree's index.
func (a addends) each(z0, z1 int, f func(c octree.Cell, s []float64, v []int32)) {
	for _, res := range a.results {
		index := res.Tree.Index()
		for i, c := range res.Tree.Cells {
			if c.Box.Lo[2] < z1 && c.Box.Hi[2] > z0 {
				f(c, res.Samples, index.Cell(i))
			}
		}
	}
	for _, p := range a.ps {
		if p.Cell.Box.Lo[2] < z1 && p.Cell.Box.Hi[2] > z0 {
			f(p.Cell, p.Samples, p.View)
		}
	}
}

// blockSum is the accumulation kernel and its working memory, which only
// grows.
//
// A cell of rate r on its rate's lattice (octree.Cell.OnLattice) is a union
// of aligned r³ blocks whose corners are samples of the cell, and trilinear
// interpolation is linear in the corners: the sum of the addends'
// interpolations over a block is the interpolation of the sum of their
// corners. So the region is cut into z-chunks, and in each chunk the kernel
// first adds, in addend order, the corners of every block an addend covers
// into one block window per rate — the first addend of a block is stored,
// not added to zero — then interpolates each block once per rate, finest
// first. Rate-1 cells add their samples straight to dst.
//
// A voxel thus receives its rate-1 samples in addend order, then one
// interpolation per rate: its bits depend on the addend order alone, not on
// the chunk, slab or rank cut, and with one addend they are the per-cell
// formula's.
type blockSum struct {
	layers []layer   // by log2(rate) − 1
	top    int       // the chunk height: the coarsest rate met, at least 8
	buf    []float64 // a run's four x-interpolated edges and two planes
}

// layer is one rate's block window over the current chunk: the eight corner
// sums of each block, x fastest, in c000, c100, c010, …, c111 order.
type layer struct {
	rate, shift int
	phase       [3]int // the corner mod rate of every cell, set by the first
	lo, n       [3]int // the window's first block and block counts
	sum         []float64
	seen        []bool // the block has an addend
	used        bool   // some block has an addend
}

// add checks every addend, then runs the chunks of region, z-slabs aligned
// to the chunk height.
func (bs *blockSum) add(dst *grid.Field, origin grid.Point, region grid.Box, a addends, scale float64) error {
	region = region.Intersect(grid.BoxAt(origin, dst.Dim.Nx, dst.Dim.Ny, dst.Dim.Nz))
	for i := range bs.layers {
		bs.layers[i].rate, bs.layers[i].used = 0, false
	}
	bs.top = 8
	for i, c := range a.results {
		if c.Tree.Dim != dst.Dim {
			return fmt.Errorf("sample: result %d dims %v != %v", i, c.Tree.Dim, dst.Dim)
		}
		for _, cell := range c.Tree.Cells {
			if err := bs.admit(cell, region); err != nil {
				return fmt.Errorf("sample: result %d: %w", i, err)
			}
		}
		if len(c.Samples) != c.Tree.SampleCount() {
			return fmt.Errorf("sample: result %d: %d samples stored, tree needs %d", i, len(c.Samples), c.Tree.SampleCount())
		}
	}
	for i, p := range a.ps {
		if err := bs.admit(p.Cell, region); err != nil {
			return fmt.Errorf("sample: patch %d: %w", i, err)
		}
		if len(p.View) != p.Cell.SlotCount() {
			return fmt.Errorf("sample: patch %d has %d slots, cell needs %d", i, len(p.View), p.Cell.SlotCount())
		}
	}
	for z := region.Lo[2] &^ (bs.top - 1); !region.Empty() && z < region.Hi[2]; z += bs.top {
		clip := region
		clip.Lo[2], clip.Hi[2] = max(z, region.Lo[2]), min(z+bs.top, region.Hi[2])
		bs.chunk(dst, origin, clip, a, scale)
	}
	return nil
}

// admit checks a cell — cubic, its rate a power of two dividing its size —
// and, if it meets region at a rate above 1, sets or checks the phase of
// its rate's lattice and raises the chunk height to its rate.
func (bs *blockSum) admit(c octree.Cell, region grid.Box) error {
	s, r := c.Box.Size(), c.Rate
	if s[0] != s[1] || s[1] != s[2] || r < 1 || r&(r-1) != 0 || s[0]&(r-1) != 0 {
		return fmt.Errorf("cell %v with rate %d", c.Box, r)
	}
	if r == 1 || !c.Box.Overlaps(region) {
		return nil
	}
	j := bits.TrailingZeros(uint(r))
	for len(bs.layers) < j {
		bs.layers = append(bs.layers, layer{})
	}
	l, ph := &bs.layers[j-1], [3]int{c.Box.Lo[0] & (r - 1), c.Box.Lo[1] & (r - 1), c.Box.Lo[2] & (r - 1)}
	if l.rate == 0 {
		l.rate, l.shift, l.phase = r, j, ph
	} else if ph != l.phase {
		return fmt.Errorf("cell %v is off the rate-%d lattice of the cells before it", c.Box, r)
	}
	bs.top = max(bs.top, r)
	return nil
}

// chunk accumulates the addends over clip: corner sums, then one
// interpolation per rate.
func (bs *blockSum) chunk(dst *grid.Field, origin grid.Point, clip grid.Box, a addends, scale float64) {
	for i := range bs.layers {
		if l := &bs.layers[i]; l.rate != 0 {
			l.window(clip)
		}
	}
	a.each(clip.Lo[2], clip.Hi[2], func(c octree.Cell, s []float64, v []int32) {
		switch k := c.Box.Intersect(clip); {
		case k.Empty():
		case c.Rate == 1:
			addSamples(dst, origin, &c, s, v, k, scale)
		default:
			bs.layers[bits.TrailingZeros(uint(c.Rate))-1].addCorners(&c, s, v, k)
		}
	})
	for i := range bs.layers {
		if l := &bs.layers[i]; l.used {
			bs.lerp(l, dst, origin, clip, scale)
		}
	}
}

// window sizes the layer to the blocks that meet clip and marks them empty.
func (l *layer) window(clip grid.Box) {
	nb := 1
	for a := range 3 {
		l.lo[a] = (clip.Lo[a] - l.phase[a]) >> l.shift
		l.n[a] = (clip.Hi[a]-l.phase[a]+l.rate-1)>>l.shift - l.lo[a]
		nb *= l.n[a]
	}
	l.sum = slices.Grow(l.sum[:0], 8*nb)[:8*nb]
	l.seen = slices.Grow(l.seen[:0], nb)[:nb]
	clear(l.seen)
	l.used = false
}

// addCorners adds the corners of the blocks of cell c, whose lattice is
// s read through v, that meet k, a non-empty sub-box of the cell.
func (l *layer) addCorners(c *octree.Cell, s []float64, v []int32, k grid.Box) {
	lo, sh, m := c.Box.Lo, l.shift, c.LatticePoints()
	var i0, i1, b0 [3]int // the blocks' lattice range; the cell's first block in the window
	for a := range 3 {
		i0[a] = (k.Lo[a] - lo[a]) >> sh
		i1[a] = (k.Hi[a] - lo[a] + l.rate - 1) >> sh
		b0[a] = (lo[a]-l.phase[a])>>sh - l.lo[a]
	}
	l.used = true
	for iz := i0[2]; iz < i1[2]; iz++ {
		for iy := i0[1]; iy < i1[1]; iy++ {
			b := ((b0[2]+iz)*l.n[1]+b0[1]+iy)*l.n[0] + b0[0] + i0[0]
			r00 := v[(iz*m+iy)*m:]
			r10, r01, r11 := r00[m:], r00[m*m:], r00[m*m+m:]
			// A block's high-x corners are the next block's low-x ones.
			ix := i0[0]
			c0, c2, c4, c6 := s[r00[ix]], s[r10[ix]], s[r01[ix]], s[r11[ix]]
			for ; ix < i1[0]; ix, b = ix+1, b+1 {
				q := l.sum[8*b:][:8]
				c1, c3, c5, c7 := s[r00[ix+1]], s[r10[ix+1]], s[r01[ix+1]], s[r11[ix+1]]
				if l.seen[b] {
					q[0], q[1], q[2], q[3] = q[0]+c0, q[1]+c1, q[2]+c2, q[3]+c3
					q[4], q[5], q[6], q[7] = q[4]+c4, q[5]+c5, q[6]+c6, q[7]+c7
				} else {
					q[0], q[1], q[2], q[3] = c0, c1, c2, c3
					q[4], q[5], q[6], q[7] = c4, c5, c6, c7
					l.seen[b] = true
				}
				c0, c2, c4, c6 = c1, c3, c5, c7
			}
		}
	}
}

// lerp trilinearly interpolates the corner sums of every block of l that
// has an addend over clip, a run of consecutive such blocks along x at a
// time, and accumulates scale × that into dst.
//
// The interpolation is separable: the run's four x-edges are x-interpolated
// over its x range, two edges blend into each line of a y-interpolated
// face, and each output plane blends the two faces — the association order
// of the one-expression form
//
//	(1−fz)·((1−fy)·((1−fx)·c000 + fx·c100) + fy·(…)) + fz·((1−fy)·(…) + fy·(…))
//
// so every output is that expression's float64 operations on its operands.
// Products are explicitly rounded (float64(…)), so no architecture may fuse
// them into the adds and the bits are the same everywhere.
func (bs *blockSum) lerp(l *layer, dst *grid.Field, origin grid.Point, clip grid.Box, scale float64) {
	r, sh, ph, inv := l.rate, l.shift, l.phase, 1/float64(l.rate)
	nx, nxy := dst.Dim.Nx, dst.Dim.Nx*dst.Dim.Ny
	for bz := 0; bz < l.n[2]; bz++ {
		zb := (l.lo[2]+bz)<<sh + ph[2]
		z0, z1 := max(zb, clip.Lo[2]), min(zb+r, clip.Hi[2])
		for by := 0; by < l.n[1]; by++ {
			yb := (l.lo[1]+by)<<sh + ph[1]
			y0, h := max(yb, clip.Lo[1]), min(yb+r, clip.Hi[1])-max(yb, clip.Lo[1])
			row := (bz*l.n[1] + by) * l.n[0]
			for bx := 0; bx < l.n[0]; bx++ {
				if !l.seen[row+bx] {
					continue
				}
				x0 := max((l.lo[0]+bx)<<sh+ph[0], clip.Lo[0])
				for bx < l.n[0] && l.seen[row+bx] {
					bx++
				}
				w := min((l.lo[0]+bx)<<sh+ph[0], clip.Hi[0]) - x0
				if n := 4*w + 2*w*h; cap(bs.buf) < n {
					bs.buf = make([]float64, n)
				}
				e00, e10, e01, e11 := bs.buf[:w], bs.buf[w:2*w], bs.buf[2*w:3*w], bs.buf[3*w:4*w]
				p0, p1 := bs.buf[4*w:][:w*h], bs.buf[4*w+w*h:][:w*h]
				for i := range e00 {
					u := x0 + i - ph[0]
					c := l.sum[8*(row+u>>sh-l.lo[0]):][:8]
					fx := float64(float64(u&(r-1)) * inv)
					gx := 1 - fx
					e00[i] = float64(gx*c[0]) + float64(fx*c[1])
					e10[i] = float64(gx*c[2]) + float64(fx*c[3])
					e01[i] = float64(gx*c[4]) + float64(fx*c[5])
					e11[i] = float64(gx*c[6]) + float64(fx*c[7])
				}
				for y := 0; y < h; y++ {
					fy := float64(float64(y0+y-yb) * inv)
					gy := 1 - fy
					a, b := p0[y*w:][:w], p1[y*w:][:w]
					for i := range a {
						a[i] = float64(gy*e00[i]) + float64(fy*e10[i])
						b[i] = float64(gy*e01[i]) + float64(fy*e11[i])
					}
				}
				out := dst.Data[dst.Dim.Index(x0-origin[0], y0-origin[1], z0-origin[2]):]
				for z := z0; z < z1; z++ {
					fz := float64(float64(z-zb) * inv)
					gz := 1 - fz
					for y := 0; y < h; y++ {
						o := out[(z-z0)*nxy+y*nx:][:w]
						a, b := p0[y*w:][:w], p1[y*w:][:w]
						for i := range o {
							o[i] += float64(scale * (float64(gz*a[i]) + float64(fz*b[i])))
						}
					}
				}
			}
		}
	}
}

// addSamples adds scale × the lattice of a rate-1 cell c, s read through v,
// over k, a non-empty sub-box of the cell: at full resolution they are the
// values.
func addSamples(dst *grid.Field, origin grid.Point, c *octree.Cell, s []float64, v []int32, k grid.Box, scale float64) {
	lo, m, w := c.Box.Lo, c.LatticePoints(), k.Hi[0]-k.Lo[0]
	for z := k.Lo[2]; z < k.Hi[2]; z++ {
		for y := k.Lo[1]; y < k.Hi[1]; y++ {
			row := dst.Data[dst.Dim.Index(k.Lo[0]-origin[0], y-origin[1], z-origin[2]):][:w]
			for i, j := range v[((z-lo[2])*m+y-lo[1])*m+k.Lo[0]-lo[0]:][:w] {
				row[i] += float64(scale * s[j])
			}
		}
	}
}
