// Package grid provides the 3D grid primitives shared by every other
// package in lowcomm3d: dimensions, boxes (axis-aligned integer regions),
// flat row-major indexing, and dense scalar/complex/tensor fields.
//
// Conventions (see DESIGN.md §6): a grid of dimensions (Nx, Ny, Nz) is
// stored as a flat slice with index = x + Nx*(y + Ny*z). Boxes are
// half-open: Lo inclusive, Hi exclusive.
package grid

import "fmt"

// Point is an integer lattice point (x, y, z).
type Point [3]int

// Dim3 describes the extents of a 3D grid.
type Dim3 struct {
	Nx, Ny, Nz int
}

// Cube returns the dimensions of an n×n×n grid.
func Cube(n int) Dim3 { return Dim3{n, n, n} }

// Len returns the total number of grid points Nx*Ny*Nz.
func (d Dim3) Len() int { return d.Nx * d.Ny * d.Nz }

// Index returns the flat row-major index of (x, y, z).
func (d Dim3) Index(x, y, z int) int { return x + d.Nx*(y+d.Ny*z) }

// Coords inverts Index, returning the (x, y, z) coordinates of flat index i.
func (d Dim3) Coords(i int) (x, y, z int) {
	x = i % d.Nx
	i /= d.Nx
	y = i % d.Ny
	z = i / d.Ny
	return
}

// Bounds returns the box covering the whole grid.
func (d Dim3) Bounds() Box { return Box{Lo: Point{0, 0, 0}, Hi: Point{d.Nx, d.Ny, d.Nz}} }

// String implements fmt.Stringer.
func (d Dim3) String() string { return fmt.Sprintf("%dx%dx%d", d.Nx, d.Ny, d.Nz) }

// Box is a half-open axis-aligned region [Lo, Hi) of a 3D grid.
type Box struct {
	Lo, Hi Point
}

// BoxAt returns the box of size (kx, ky, kz) whose low corner is at lo.
func BoxAt(lo Point, kx, ky, kz int) Box {
	return Box{Lo: lo, Hi: Point{lo[0] + kx, lo[1] + ky, lo[2] + kz}}
}

// CubeAt returns the k×k×k box whose low corner is at lo.
func CubeAt(lo Point, k int) Box { return BoxAt(lo, k, k, k) }

// Size returns the box extents along each axis.
func (b Box) Size() Point {
	return Point{b.Hi[0] - b.Lo[0], b.Hi[1] - b.Lo[1], b.Hi[2] - b.Lo[2]}
}

// Volume returns the number of lattice points inside the box.
func (b Box) Volume() int {
	s := b.Size()
	if s[0] <= 0 || s[1] <= 0 || s[2] <= 0 {
		return 0
	}
	return s[0] * s[1] * s[2]
}

// Empty reports whether the box contains no lattice points.
func (b Box) Empty() bool { return b.Volume() == 0 }

// ContainsBox reports whether every point of c lies inside b.
func (b Box) ContainsBox(c Box) bool {
	if c.Empty() {
		return true
	}
	return c.Lo[0] >= b.Lo[0] && c.Hi[0] <= b.Hi[0] &&
		c.Lo[1] >= b.Lo[1] && c.Hi[1] <= b.Hi[1] &&
		c.Lo[2] >= b.Lo[2] && c.Hi[2] <= b.Hi[2]
}

// Intersect returns the intersection of b and c (possibly empty).
func (b Box) Intersect(c Box) Box {
	var r Box
	for i := 0; i < 3; i++ {
		r.Lo[i] = max(b.Lo[i], c.Lo[i])
		r.Hi[i] = min(b.Hi[i], c.Hi[i])
		if r.Hi[i] < r.Lo[i] {
			r.Hi[i] = r.Lo[i]
		}
	}
	return r
}

// Overlaps reports whether b and c share at least one lattice point.
func (b Box) Overlaps(c Box) bool { return !b.Intersect(c).Empty() }

// TorusDistRange returns the minimum and maximum over the points of c of
// their L∞ lattice distance to the box on the periodic grid d (zero
// inside): every transform in the library is cyclic, so a point by one
// face of the grid is near a box on the opposite face. The distance is the
// largest per-axis ring distance, so both extremes are separable: each is
// the largest of the per-axis extremes. Both boxes lie inside d.
func (b Box) TorusDistRange(d Dim3, c Box) (lo, hi int) {
	n := [3]int{d.Nx, d.Ny, d.Nz}
	for i := range n {
		mn, mx := ringRange(n[i], b.Lo[i], b.Hi[i], c.Lo[i], c.Hi[i]-1)
		lo, hi = max(lo, mn), max(hi, mx)
	}
	return lo, hi
}

// ringDist is the distance on a ring of n points from p to the arc [lo, hi).
func ringDist(n, lo, hi, p int) int {
	if p >= lo && p < hi {
		return 0
	}
	return min((lo-p+n)%n, (p-hi+1+n)%n)
}

// ringRange returns the minimum and maximum of ringDist over [a, z]. Off
// the arc the distance is a tent whose peak is opposite the arc, so both
// extremes lie at a, at z, or at the peak. Where the top is two points
// wide, checking the first suffices: an interval holding only the second
// starts at it.
func ringRange(n, lo, hi, a, z int) (mn, mx int) {
	fa, fz := ringDist(n, lo, hi, a), ringDist(n, lo, hi, z)
	mn, mx = min(fa, fz), max(fa, fz)
	if a < hi && z >= lo {
		mn = 0
	}
	if peak := (hi - 1 + (n-hi+lo+1)/2) % n; peak >= a && peak <= z {
		mx = ringDist(n, lo, hi, peak)
	}
	return mn, mx
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)", b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2])
}

// ForEach calls f for every lattice point inside the box in row-major
// (x fastest) order.
func (b Box) ForEach(f func(x, y, z int)) {
	for z := b.Lo[2]; z < b.Hi[2]; z++ {
		for y := b.Lo[1]; y < b.Hi[1]; y++ {
			for x := b.Lo[0]; x < b.Hi[0]; x++ {
				f(x, y, z)
			}
		}
	}
}
