// Package massif implements the paper's use case (§2.2, §3.2): the MASSIF
// fixed-point spectral solver for Hooke's-law stress–strain equilibrium in
// composite microstructures (Moulinec–Suquet 1998), in two flavours:
//
//   - Reference: the traditional scheme (Algorithm 1) using full-grid FFTs
//     of every stress component each iteration;
//   - LowComm: the proposed scheme (Algorithm 2) that convolves each
//     sub-domain locally and exchanges only octree-compressed samples.
package massif

import (
	"fmt"
	"math"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

// Phase is one material phase with isotropic stiffness.
type Phase struct {
	Lambda, Mu float64 // Lamé coefficients
}

// StressOf applies this phase's Hooke law to a strain tensor.
func (p Phase) StressOf(eps grid.SymTensor) grid.SymTensor {
	return green.IsotropicStress(p.Lambda, p.Mu, eps)
}

// Microstructure is a voxelized two-phase (or n-phase) composite: a phase
// index per grid point plus the phase table. This is the discretized
// "microstructure of a composite material" MASSIF iterates on.
type Microstructure struct {
	Dim    grid.Dim3
	Phases []Phase
	Index  []uint8     // phase index per voxel
	aniso  []Stiffness // optional full stiffness per phase slot (SetAnisotropic)
}

// NewMicrostructure allocates a microstructure filled with phase 0.
func NewMicrostructure(d grid.Dim3, phases ...Phase) (*Microstructure, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("massif: at least one phase required")
	}
	if len(phases) > 256 {
		return nil, fmt.Errorf("massif: too many phases (%d)", len(phases))
	}
	for i, p := range phases {
		if p.Mu <= 0 || p.Lambda+2*p.Mu/3 <= 0 {
			return nil, fmt.Errorf("massif: phase %d not positive definite (λ=%g, μ=%g)", i, p.Lambda, p.Mu)
		}
	}
	return &Microstructure{
		Dim:    d,
		Phases: phases,
		Index:  make([]uint8, d.Len()),
	}, nil
}

// SetSphere assigns phase p to every voxel within radius r of center c —
// the classic spherical-inclusion benchmark microstructure.
func (m *Microstructure) SetSphere(c grid.Point, r float64, p uint8) error {
	if int(p) >= len(m.Phases) {
		return fmt.Errorf("massif: phase %d out of range", p)
	}
	r2 := r * r
	for z := 0; z < m.Dim.Nz; z++ {
		for y := 0; y < m.Dim.Ny; y++ {
			for x := 0; x < m.Dim.Nx; x++ {
				dx, dy, dz := float64(x-c[0]), float64(y-c[1]), float64(z-c[2])
				if dx*dx+dy*dy+dz*dz <= r2 {
					m.Index[m.Dim.Index(x, y, z)] = p
				}
			}
		}
	}
	return nil
}

// SetLaminate assigns phase p to every voxel whose coordinate along axis
// (0, 1 or 2) is in [lo, hi) — layered composites have exact analytic
// effective moduli, making them the canonical validation case.
func (m *Microstructure) SetLaminate(axis, lo, hi int, p uint8) error {
	if int(p) >= len(m.Phases) {
		return fmt.Errorf("massif: phase %d out of range", p)
	}
	if axis < 0 || axis > 2 {
		return fmt.Errorf("massif: axis %d out of range", axis)
	}
	for z := 0; z < m.Dim.Nz; z++ {
		for y := 0; y < m.Dim.Ny; y++ {
			for x := 0; x < m.Dim.Nx; x++ {
				c := [3]int{x, y, z}[axis]
				if c >= lo && c < hi {
					m.Index[m.Dim.Index(x, y, z)] = p
				}
			}
		}
	}
	return nil
}

// SetVoronoi partitions the grid into numGrains periodic Voronoi grains
// (nearest seed under the torus metric) and assigns each grain a phase
// round-robin from the phase table — the polycrystal microstructures the
// paper's use case targets ("scaling and accelerating MASSIF has a wide
// range of applications for studying micromechanical properties of
// polycrystals"). Deterministic for a given seed.
func (m *Microstructure) SetVoronoi(numGrains int, seed int64) error {
	if numGrains < 1 {
		return fmt.Errorf("massif: grain count %d must be positive", numGrains)
	}
	rng := newSplitMix(uint64(seed))
	type site struct {
		x, y, z int
		phase   uint8
	}
	sites := make([]site, numGrains)
	for g := range sites {
		sites[g] = site{
			x:     int(rng.next() % uint64(m.Dim.Nx)),
			y:     int(rng.next() % uint64(m.Dim.Ny)),
			z:     int(rng.next() % uint64(m.Dim.Nz)),
			phase: uint8(g % len(m.Phases)),
		}
	}
	torus := func(d, n int) int {
		if d < 0 {
			d = -d
		}
		if d > n/2 {
			d = n - d
		}
		return d
	}
	for z := 0; z < m.Dim.Nz; z++ {
		for y := 0; y < m.Dim.Ny; y++ {
			for x := 0; x < m.Dim.Nx; x++ {
				best, bestD := 0, 1<<62
				for g, s := range sites {
					dx := torus(x-s.x, m.Dim.Nx)
					dy := torus(y-s.y, m.Dim.Ny)
					dz := torus(z-s.z, m.Dim.Nz)
					d := dx*dx + dy*dy + dz*dz
					if d < bestD {
						bestD = d
						best = g
					}
				}
				m.Index[m.Dim.Index(x, y, z)] = sites[best].phase
			}
		}
	}
	return nil
}

// splitMix is a tiny deterministic PRNG (SplitMix64), used instead of
// math/rand so microstructures are reproducible across Go versions.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// VolumeFraction returns the fraction of voxels holding phase p.
func (m *Microstructure) VolumeFraction(p uint8) float64 {
	n := 0
	for _, v := range m.Index {
		if v == p {
			n++
		}
	}
	return float64(n) / float64(len(m.Index))
}

// ReferenceMedium returns the Lamé coefficients of the reference medium
// used to build Γ⁰: the arithmetic mean of the extreme phase moduli, the
// standard Moulinec–Suquet choice that keeps the basic scheme contractive.
func (m *Microstructure) ReferenceMedium() (lambda0, mu0 float64) {
	minL, maxL := math.Inf(1), math.Inf(-1)
	minM, maxM := math.Inf(1), math.Inf(-1)
	for _, p := range m.Phases {
		minL, maxL = math.Min(minL, p.Lambda), math.Max(maxL, p.Lambda)
		minM, maxM = math.Min(minM, p.Mu), math.Max(maxM, p.Mu)
	}
	return (minL + maxL) / 2, (minM + maxM) / 2
}

// gamma is the Green operator Γ̂⁰ of the reference medium.
func (m *Microstructure) gamma() green.Gamma {
	lambda0, mu0 := m.ReferenceMedium()
	return green.Gamma{Lambda0: lambda0, Mu0: mu0}
}

// StressIndex applies the constitutive law of voxel flat-index i: the full
// anisotropic stiffness when attached, the isotropic phase otherwise.
func (m *Microstructure) StressIndex(i int, eps grid.SymTensor) grid.SymTensor {
	if m.aniso != nil {
		return m.aniso[m.Index[i]].Apply(eps)
	}
	return m.Phases[m.Index[i]].StressOf(eps)
}

// StressField computes σ(x) = C(x):ε(x) voxelwise into dst (allocated if
// nil) — Algorithm 1 step 6 / Algorithm 2 line 8.
func (m *Microstructure) StressField(eps *grid.TensorField, dst *grid.TensorField) (*grid.TensorField, error) {
	if eps.Dim != m.Dim {
		return nil, fmt.Errorf("massif: strain dims %v != microstructure %v", eps.Dim, m.Dim)
	}
	if dst == nil {
		dst = grid.NewTensorField(m.Dim)
	} else if dst.Dim != m.Dim {
		return nil, fmt.Errorf("massif: dst dims %v != microstructure %v", dst.Dim, m.Dim)
	}
	for i := 0; i < m.Dim.Len(); i++ {
		dst.SetIndex(i, m.StressIndex(i, eps.AtIndex(i)))
	}
	return dst, nil
}
