// Package octree implements the paper's adaptive-sampling data structure
// (§3.2 step 3, §4 "Octrees for adaptive sampling"): a spatial partition of
// the N³ grid into cubic cells, each carrying a downsampling rate, stored
// as compact flat metadata — "five consecutive integers capturing the
// details of one octree cell: the co-ordinates of the corner point
// (x, y, z), the downsampling rate of that cell and a count of the total
// number of samples in the cells that come before the current cell".
package octree

import (
	"fmt"

	"lowcomm3d/internal/grid"
)

// RateFunc decides the downsampling rate of a candidate cell. It returns a
// positive power-of-two rate when the whole cell can be sampled uniformly
// at that rate, or 0 when the cell straddles regions of different density
// and must be subdivided.
type RateFunc func(b grid.Box) int

// Cell is one octree leaf: a cubic region sampled with stride Rate along
// every axis. The sample lattice includes both end planes of the cell
// (positions lo, lo+r, …, lo+size, the last wrapping periodically onto the
// neighbouring cell) so each cell is self-contained for trilinear
// reconstruction — no neighbour lookups during the accumulation step.
type Cell struct {
	Box  grid.Box
	Rate int
}

// LatticePoints returns the number of sample points per axis:
// size/rate + 1 (endpoint included).
func (c Cell) LatticePoints() int {
	return (c.Box.Hi[0]-c.Box.Lo[0])/c.Rate + 1
}

// SampleCount returns the number of samples stored for this cell.
func (c Cell) SampleCount() int {
	m := c.LatticePoints()
	return m * m * m
}

// OnLattice reports whether the cell's corner is a multiple of its rate,
// so its samples sit on the global lattice of that rate: every cell Build
// emits does, since a cell's corner is a multiple of its size and its rate
// divides the size.
func (c Cell) OnLattice() bool {
	lo := c.Box.Lo
	return lo[0]%c.Rate == 0 && lo[1]%c.Rate == 0 && lo[2]%c.Rate == 0
}

// OffLatticeError reports a cell whose corner is not a multiple of its
// rate. The accumulation sums the corner samples of cells of one rate block
// by block across results, which needs every such cell on the same lattice.
type OffLatticeError struct{ Cell Cell }

func (e *OffLatticeError) Error() string {
	return fmt.Sprintf("octree: cell %v corner is off the rate-%d lattice", e.Cell.Box, e.Cell.Rate)
}

// Tree is a complete octree decomposition of a grid.
type Tree struct {
	Dim   grid.Dim3
	Cells []Cell
}

// Build constructs an octree over the cubic power-of-two grid d by
// recursive subdivision: a candidate cell is emitted as a leaf when rate
// returns a positive value, otherwise it is split into its eight octants.
// Rates are clamped to the cell size (so a coarse far-field rate still
// works in small residual cells).
func Build(d grid.Dim3, rate RateFunc) (*Tree, error) {
	if d.Nx != d.Ny || d.Ny != d.Nz {
		return nil, fmt.Errorf("octree: grid %v must be cubic", d)
	}
	n := d.Nx
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("octree: grid size %d must be a power of two", n)
	}
	t := &Tree{Dim: d}
	if err := t.subdivide(grid.CubeAt(grid.Point{0, 0, 0}, n), rate); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Tree) subdivide(b grid.Box, rate RateFunc) error {
	size := b.Hi[0] - b.Lo[0]
	r := rate(b)
	if r < 0 {
		return fmt.Errorf("octree: rate function returned %d for %v", r, b)
	}
	if r == 0 && size == 1 {
		// Cannot split further; a 1-cell is always stored at full rate.
		r = 1
	}
	if r > 0 {
		if r&(r-1) != 0 {
			return fmt.Errorf("octree: rate %d for %v is not a power of two", r, b)
		}
		if r > size {
			r = size
		}
		t.Cells = append(t.Cells, Cell{Box: b, Rate: r})
		return nil
	}
	h := size / 2
	for dz := 0; dz < 2; dz++ {
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				lo := grid.Point{b.Lo[0] + dx*h, b.Lo[1] + dy*h, b.Lo[2] + dz*h}
				if err := t.subdivide(grid.CubeAt(lo, h), rate); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SampleCount returns the total number of samples across all cells.
func (t *Tree) SampleCount() int {
	n := 0
	for _, c := range t.Cells {
		n += c.SampleCount()
	}
	return n
}

// CellCount returns the number of leaf cells.
func (t *Tree) CellCount() int { return len(t.Cells) }

// MaxGridSize bounds each grid extent Validate accepts (2²⁰, the same
// plausibility bound sample.ReadCompressed puts on a stream's header): at
// most 2⁶⁰ grid points, so cell volumes, their running sum and the packed
// corner keys below all fit an int64 without overflow checks.
const MaxGridSize = 1 << 20

// Validate checks the structural invariants: cells are cubic with size ≥ 1,
// lie within bounds, have power-of-two rates dividing their sizes and their
// corners (an *OffLatticeError otherwise), and tile the grid exactly —
// disjoint and covering every point.
//
// The tiling check is linear in the cell count. With every cell a
// non-empty in-bounds box and the volumes summing to exactly the grid's
// point count, the cells tile the grid iff every lattice corner is a corner
// of an even number of boxes once the grid's own box is counted in: the
// mixed difference of f = Σ 1_cell − 1_grid is ±1 at exactly the eight
// corners of each box, so even corner counts mean that difference vanishes
// mod 2, hence (f has finite support) f itself is even everywhere — every
// grid point is covered an odd number of times, so at least once, and equal
// total volume then forces exactly once. The argument needs the volume sum
// to be exact, so it is compared without ever exceeding the grid's count.
func (t *Tree) Validate() error {
	d := t.Dim
	if d.Nx > MaxGridSize || d.Ny > MaxGridSize || d.Nz > MaxGridSize {
		return fmt.Errorf("octree: grid %v exceeds %d points per axis", d, MaxGridSize)
	}
	bounds := d.Bounds()
	total, vol := d.Len(), 0
	for i, c := range t.Cells {
		s := c.Box.Size()
		if s[0] != s[1] || s[1] != s[2] {
			return fmt.Errorf("octree: cell %d box %v not cubic", i, c.Box)
		}
		if s[0] < 1 {
			return fmt.Errorf("octree: cell %d box %v is empty", i, c.Box)
		}
		if !bounds.ContainsBox(c.Box) {
			return fmt.Errorf("octree: cell %d box %v outside grid", i, c.Box)
		}
		if c.Rate < 1 || c.Rate&(c.Rate-1) != 0 {
			return fmt.Errorf("octree: cell %d rate %d invalid", i, c.Rate)
		}
		if s[0]%c.Rate != 0 {
			return fmt.Errorf("octree: cell %d rate %d does not divide size %d", i, c.Rate, s[0])
		}
		if !c.OnLattice() {
			return fmt.Errorf("octree: cell %d: %w", i, &OffLatticeError{Cell: c})
		}
		v := c.Box.Volume()
		if v > total-vol {
			return fmt.Errorf("octree: cells 0..%d cover more than the grid's %d points", i, total)
		}
		vol += v
	}
	if vol != total {
		return fmt.Errorf("octree: cells cover %d points, grid has %d", vol, total)
	}
	// Corner parity, keyed by the corner's index in the (N+1)³ vertex grid.
	wx, wy := d.Nx+1, d.Ny+1
	parity := make(map[int]uint8, len(t.Cells))
	toggle := func(b grid.Box) {
		for _, z := range [2]int{b.Lo[2], b.Hi[2]} {
			for _, y := range [2]int{b.Lo[1], b.Hi[1]} {
				row := (z*wy + y) * wx
				parity[row+b.Lo[0]] ^= 1
				parity[row+b.Hi[0]] ^= 1
			}
		}
	}
	toggle(bounds)
	for _, c := range t.Cells {
		toggle(c.Box)
	}
	odd := -1
	for key, p := range parity {
		if p != 0 && (odd < 0 || key < odd) {
			odd = key
		}
	}
	if odd >= 0 {
		return fmt.Errorf("octree: cells overlap or leave a gap: corner (%d,%d,%d) is shared by an odd number of boxes",
			odd%wx, odd/wx%wy, odd/wx/wy)
	}
	return nil
}

// ForEachSample visits every sample point of every cell in storage order.
// Sample coordinates on the high end planes wrap periodically onto the
// torus, matching the circular-convolution convention of the library. f
// receives the cell index, the running sample index, and the wrapped grid
// coordinates.
func (t *Tree) ForEachSample(f func(cell, sample int, x, y, z int)) {
	n := t.Dim.Nx
	idx := 0
	for ci, c := range t.Cells {
		m, r := c.LatticePoints(), c.Rate
		for iz := 0; iz < m; iz++ {
			z := wrapHigh(c.Box.Lo[2]+iz*r, n)
			for iy := 0; iy < m; iy++ {
				y := wrapHigh(c.Box.Lo[1]+iy*r, n)
				for ix := 0; ix < m; ix++ {
					f(ci, idx, wrapHigh(c.Box.Lo[0]+ix*r, n), y, z)
					idx++
				}
			}
		}
	}
}

// wrapHigh wraps a lattice coordinate onto the torus. A cell lies inside the
// grid, so Lo + i·Rate ≤ Hi ≤ n: the only coordinate to wrap is n itself.
func wrapHigh(v, n int) int {
	if v == n {
		return 0
	}
	return v
}

// CellOffsets returns, for each cell, the index of its first sample in the
// flat sample array (the cumulative counts of the paper's fifth integer).
func (t *Tree) CellOffsets() []int {
	off := make([]int, len(t.Cells))
	cum := 0
	for i, c := range t.Cells {
		off[i] = cum
		cum += c.SampleCount()
	}
	return off
}

// FindCell returns the index of the cell containing (x, y, z), or -1, by a
// linear scan over the cells: no index to build, fine for a handful of
// queries. Use a Locator to query many points against a large tree.
func (t *Tree) FindCell(x, y, z int) int {
	for i, c := range t.Cells {
		if c.Box.Contains(x, y, z) {
			return i
		}
	}
	return -1
}

// Locator answers point-location queries in O(tree depth) by descending
// the implicit octree, instead of FindCell's linear scan — worthwhile when
// querying many points against a large adaptive tree (rendering,
// per-voxel rate lookups).
type Locator struct {
	n      int
	leaves map[grid.Box]int
}

// NewLocator indexes the tree's leaves for fast descent.
func NewLocator(t *Tree) *Locator {
	l := &Locator{n: t.Dim.Nx, leaves: make(map[grid.Box]int, len(t.Cells))}
	for i, c := range t.Cells {
		l.leaves[c.Box] = i
	}
	return l
}

// Find returns the index of the leaf cell containing (x, y, z), or −1.
func (l *Locator) Find(x, y, z int) int {
	if x < 0 || x >= l.n || y < 0 || y >= l.n || z < 0 || z >= l.n {
		return -1
	}
	b := grid.CubeAt(grid.Point{0, 0, 0}, l.n)
	for {
		if i, ok := l.leaves[b]; ok {
			return i
		}
		size := b.Hi[0] - b.Lo[0]
		if size <= 1 {
			return -1 // malformed tree: no leaf on the descent path
		}
		h := size / 2
		lo := b.Lo
		if x >= lo[0]+h {
			lo[0] += h
		}
		if y >= lo[1]+h {
			lo[1] += h
		}
		if z >= lo[2]+h {
			lo[2] += h
		}
		b = grid.CubeAt(lo, h)
	}
}

// MaxRate returns the coarsest rate in the tree.
func (t *Tree) MaxRate() int {
	m := 0
	for _, c := range t.Cells {
		if c.Rate > m {
			m = c.Rate
		}
	}
	return m
}
