package grid

import "fmt"

// Decompose splits the grid into k×k×k sub-domains (paper §3.1 step 1:
// "the N×N×N 3D input grid is divided into smaller chunks or k×k×k 3D
// sub-domains where k < N"). Every grid extent must be divisible by k.
// Sub-domains are returned in row-major order of their low corners.
func Decompose(d Dim3, k int) ([]Box, error) {
	if k <= 0 {
		return nil, fmt.Errorf("grid: sub-domain size %d must be positive", k)
	}
	if d.Nx%k != 0 || d.Ny%k != 0 || d.Nz%k != 0 {
		return nil, fmt.Errorf("grid: dims %v not divisible by sub-domain size %d", d, k)
	}
	boxes := make([]Box, 0, (d.Nx/k)*(d.Ny/k)*(d.Nz/k))
	for z := 0; z < d.Nz; z += k {
		for y := 0; y < d.Ny; y += k {
			for x := 0; x < d.Nx; x += k {
				boxes = append(boxes, CubeAt(Point{x, y, z}, k))
			}
		}
	}
	return boxes, nil
}

// DecomposeAdaptive builds an irregular partition (paper §3.1: "for now,
// we assume regular volumetric sub-domains but irregular partitions can
// also be made"): the grid is cut into maxK cubes, inactive cubes (per the
// caller's predicate, e.g. "contains no nonzero input") are dropped
// entirely, and partially-active cubes are subdivided down to minK so the
// retained volume hugs the active region. Returned boxes are disjoint
// cubes with edge lengths in [minK, maxK] whose union contains every
// active cell.
func DecomposeAdaptive(d Dim3, maxK, minK int, active func(b Box) bool) ([]Box, error) {
	if d.Nx != d.Ny || d.Ny != d.Nz {
		return nil, fmt.Errorf("grid: adaptive decomposition requires a cubic grid, got %v", d)
	}
	if minK < 1 || maxK < minK || maxK > d.Nx {
		return nil, fmt.Errorf("grid: invalid sizes min=%d max=%d for grid %v", minK, maxK, d)
	}
	for _, k := range []int{minK, maxK} {
		if k&(k-1) != 0 {
			return nil, fmt.Errorf("grid: size %d must be a power of two", k)
		}
	}
	if d.Nx%maxK != 0 {
		return nil, fmt.Errorf("grid: dims %v not divisible by max size %d", d, maxK)
	}
	var out []Box
	var descend func(b Box)
	descend = func(b Box) {
		if !active(b) {
			return
		}
		size := b.Hi[0] - b.Lo[0]
		if size == minK {
			out = append(out, b)
			return
		}
		h := size / 2
		children := make([]Box, 0, 8)
		allActive := true
		for dz := 0; dz < 2; dz++ {
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					c := CubeAt(Point{b.Lo[0] + dx*h, b.Lo[1] + dy*h, b.Lo[2] + dz*h}, h)
					children = append(children, c)
					if !active(c) {
						allActive = false
					}
				}
			}
		}
		if allActive {
			// Nothing to prune below: keep the whole cube as one
			// sub-domain (fewer, larger pipelines).
			out = append(out, b)
			return
		}
		for _, c := range children {
			descend(c)
		}
	}
	for z := 0; z < d.Nz; z += maxK {
		for y := 0; y < d.Ny; y += maxK {
			for x := 0; x < d.Nx; x += maxK {
				descend(CubeAt(Point{x, y, z}, maxK))
			}
		}
	}
	return out, nil
}

// ActiveNonzero returns a DecomposeAdaptive predicate that reports whether
// any value of f inside the box is nonzero.
func ActiveNonzero(f *Field) func(Box) bool {
	return func(b Box) bool {
		found := false
		b.ForEach(func(x, y, z int) {
			if !found && f.At(x, y, z) != 0 {
				found = true
			}
		})
		return found
	}
}
