package massif

import (
	"fmt"
	"math"

	"lowcomm3d/internal/grid"
)

// Anisotropic elasticity: full rank-4 stiffness tensors with crystal
// symmetries and grain rotations. Real MASSIF studies polycrystals whose
// grains share one crystal stiffness in different orientations; this file
// supplies that material model on top of the isotropic machinery (the
// Green operator Γ̂⁰ keeps its isotropic *reference* medium either way —
// only the voxelwise constitutive law changes).

// Stiffness is a rank-4 elastic stiffness tensor with the minor and major
// symmetries C_ijkl = C_jikl = C_ijlk = C_klij, stored in full 4-index
// form to keep rotations and contractions convention-free.
type Stiffness struct {
	C [3][3][3][3]float64
}

// IsotropicStiffness builds the isotropic tensor
// C_ijkl = λ δ_ij δ_kl + μ (δ_ik δ_jl + δ_il δ_jk).
func IsotropicStiffness(lambda, mu float64) Stiffness {
	var s Stiffness
	d := func(a, b int) float64 {
		if a == b {
			return 1
		}
		return 0
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				for l := 0; l < 3; l++ {
					s.C[i][j][k][l] = lambda*d(i, j)*d(k, l) +
						mu*(d(i, k)*d(j, l)+d(i, l)*d(j, k))
				}
			}
		}
	}
	return s
}

// CubicStiffness builds the cubic-crystal tensor from the three constants
// (C11, C12, C44) in the crystal frame. c44 = (c11−c12)/2 recovers
// isotropy (the Zener ratio 2·C44/(C11−C12) equals 1).
func CubicStiffness(c11, c12, c44 float64) Stiffness {
	// Start from the isotropic-like base λ = c12, μ = c44 and correct the
	// diagonal: cubic differs from isotropic only in C_iiii.
	s := IsotropicStiffness(c12, c44)
	for i := 0; i < 3; i++ {
		s.C[i][i][i][i] = c11
	}
	return s
}

// Apply contracts σ_ij = C_ijkl ε_kl.
func (s Stiffness) Apply(eps grid.SymTensor) grid.SymTensor {
	var out grid.SymTensor
	for v := 0; v < grid.NumVoigt; v++ {
		i, j := grid.VoigtPair(v)
		sum := 0.0
		for k := 0; k < 3; k++ {
			for l := 0; l < 3; l++ {
				sum += s.C[i][j][k][l] * eps.At(k, l)
			}
		}
		out[v] = sum
	}
	return out
}

// Rotate returns the stiffness expressed in the frame rotated by R:
// C'_ijkl = R_ia R_jb R_kc R_ld C_abcd.
func (s Stiffness) Rotate(r [3][3]float64) Stiffness {
	var out Stiffness
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				for l := 0; l < 3; l++ {
					sum := 0.0
					for a := 0; a < 3; a++ {
						for b := 0; b < 3; b++ {
							for c := 0; c < 3; c++ {
								for d := 0; d < 3; d++ {
									sum += r[i][a] * r[j][b] * r[k][c] * r[l][d] * s.C[a][b][c][d]
								}
							}
						}
					}
					out.C[i][j][k][l] = sum
				}
			}
		}
	}
	return out
}

// Symmetric reports whether the tensor has the minor and major symmetries
// within tolerance — a structural invariant every constructor and Rotate
// must preserve.
func (s Stiffness) Symmetric(tol float64) bool {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				for l := 0; l < 3; l++ {
					c := s.C[i][j][k][l]
					if math.Abs(c-s.C[j][i][k][l]) > tol ||
						math.Abs(c-s.C[i][j][l][k]) > tol ||
						math.Abs(c-s.C[k][l][i][j]) > tol {
						return false
					}
				}
			}
		}
	}
	return true
}

// RotationFromQuaternion converts a unit quaternion (w, x, y, z) to a
// rotation matrix.
func RotationFromQuaternion(w, x, y, z float64) [3][3]float64 {
	n := math.Sqrt(w*w + x*x + y*y + z*z)
	w, x, y, z = w/n, x/n, y/n, z/n
	return [3][3]float64{
		{1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y)},
		{2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x)},
		{2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y)},
	}
}

// RandomRotation draws a uniformly distributed rotation (Shoemake's
// quaternion method) from the deterministic generator.
func RandomRotation(rng *splitMix) [3][3]float64 {
	f := func() float64 { return float64(rng.next()>>11) / float64(1<<53) }
	u1, u2, u3 := f(), f(), f()
	a, b := math.Sqrt(1-u1), math.Sqrt(u1)
	return RotationFromQuaternion(
		a*math.Sin(2*math.Pi*u2), a*math.Cos(2*math.Pi*u2),
		b*math.Sin(2*math.Pi*u3), b*math.Cos(2*math.Pi*u3))
}

// SetAnisotropic attaches one full stiffness tensor per phase slot,
// overriding the isotropic Hooke law in StressField and the solvers. The
// slice length must equal the phase count. The isotropic Phases remain the
// source of the Γ̂⁰ reference medium, so choose them as a sensible
// isotropic approximation of the crystals (e.g. Voigt averages).
func (m *Microstructure) SetAnisotropic(stiff []Stiffness) error {
	if len(stiff) != len(m.Phases) {
		return fmt.Errorf("massif: %d stiffness tensors for %d phases", len(stiff), len(m.Phases))
	}
	for i, s := range stiff {
		if !s.Symmetric(1e-9) {
			return fmt.Errorf("massif: stiffness %d lacks the required symmetries", i)
		}
	}
	m.aniso = append([]Stiffness(nil), stiff...)
	return nil
}

// RandomOrientedPolycrystal builds a Voronoi polycrystal of numGrains
// grains, each carrying the crystal stiffness in an independent random
// orientation. One phase slot per grain; the isotropic reference phase ref
// fills the Phases table for the Γ̂⁰ medium.
func RandomOrientedPolycrystal(d grid.Dim3, crystal Stiffness, ref Phase, numGrains int, seed int64) (*Microstructure, error) {
	if numGrains < 1 || numGrains > 255 {
		return nil, fmt.Errorf("massif: grain count %d out of range [1,255]", numGrains)
	}
	phases := make([]Phase, numGrains)
	for i := range phases {
		phases[i] = ref
	}
	m, err := NewMicrostructure(d, phases...)
	if err != nil {
		return nil, err
	}
	if err := m.SetVoronoi(numGrains, seed); err != nil {
		return nil, err
	}
	rng := newSplitMix(uint64(seed) ^ 0xa5a5a5a5)
	stiff := make([]Stiffness, numGrains)
	for g := range stiff {
		stiff[g] = crystal.Rotate(RandomRotation(rng))
	}
	if err := m.SetAnisotropic(stiff); err != nil {
		return nil, err
	}
	return m, nil
}
