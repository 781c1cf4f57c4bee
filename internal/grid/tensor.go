package grid

import (
	"fmt"
	"math"
)

// Voigt component order for symmetric rank-2 tensors: the paper's stress
// and strain fields σ_mn, ε_kl are symmetric, so six independent
// components suffice. Order: 11, 22, 33, 23, 13, 12.
const (
	VXX = 0
	VYY = 1
	VZZ = 2
	VYZ = 3
	VXZ = 4
	VXY = 5

	// NumVoigt is the number of independent components of a symmetric
	// rank-2 tensor.
	NumVoigt = 6
)

// VoigtIndex maps tensor indices (i, j) with i, j ∈ {0,1,2} to the Voigt
// component index.
func VoigtIndex(i, j int) int {
	if i == j {
		return i
	}
	// Off-diagonal: (1,2)/(2,1)→3, (0,2)/(2,0)→4, (0,1)/(1,0)→5.
	return 6 - i - j
}

// VoigtPair inverts VoigtIndex, returning tensor indices (i, j) with i ≤ j.
func VoigtPair(v int) (i, j int) {
	switch v {
	case VXX:
		return 0, 0
	case VYY:
		return 1, 1
	case VZZ:
		return 2, 2
	case VYZ:
		return 1, 2
	case VXZ:
		return 0, 2
	case VXY:
		return 0, 1
	}
	panic(fmt.Sprintf("grid: invalid Voigt index %d", v))
}

// SymTensor is a symmetric rank-2 tensor value in Voigt component order.
type SymTensor [NumVoigt]float64

// At returns component (i, j) of the tensor.
func (t SymTensor) At(i, j int) float64 { return t[VoigtIndex(i, j)] }

// Sub returns t − u.
func (t SymTensor) Sub(u SymTensor) SymTensor {
	var r SymTensor
	for v := range r {
		r[v] = t[v] - u[v]
	}
	return r
}

// Trace returns t11 + t22 + t33.
func (t SymTensor) Trace() float64 { return t[VXX] + t[VYY] + t[VZZ] }

// Norm returns the Frobenius norm counting off-diagonal entries twice
// (they appear twice in the full tensor).
func (t SymTensor) Norm() float64 {
	s := t[VXX]*t[VXX] + t[VYY]*t[VYY] + t[VZZ]*t[VZZ] +
		2*(t[VYZ]*t[VYZ]+t[VXZ]*t[VXZ]+t[VXY]*t[VXY])
	return math.Sqrt(s)
}

// TensorField is a dense field of symmetric rank-2 tensors: one scalar
// Field per Voigt component, all sharing the same dimensions.
type TensorField struct {
	Dim  Dim3
	Comp [NumVoigt]*Field
}

// NewTensorField allocates a zero tensor field.
func NewTensorField(d Dim3) *TensorField {
	t := &TensorField{Dim: d}
	for v := range t.Comp {
		t.Comp[v] = NewField(d)
	}
	return t
}

// AtIndex returns the tensor value at flat index i.
func (t *TensorField) AtIndex(i int) SymTensor {
	var s SymTensor
	for v := range s {
		s[v] = t.Comp[v].Data[i]
	}
	return s
}

// SetIndex stores the tensor value at flat index i.
func (t *TensorField) SetIndex(i int, s SymTensor) {
	for v := range s {
		t.Comp[v].Data[i] = s[v]
	}
}

// Clone returns a deep copy of the tensor field.
func (t *TensorField) Clone() *TensorField {
	u := &TensorField{Dim: t.Dim}
	for v := range t.Comp {
		u.Comp[v] = t.Comp[v].Clone()
	}
	return u
}

// Fill sets every grid point to the tensor s.
func (t *TensorField) Fill(s SymTensor) {
	for v := range t.Comp {
		t.Comp[v].Fill(s[v])
	}
}

// Mean returns the volume-average tensor.
func (t *TensorField) Mean() SymTensor {
	var s SymTensor
	for v := range t.Comp {
		s[v] = t.Comp[v].Mean()
	}
	return s
}

// RelL2Tensor returns ‖t−u‖₂/‖u‖₂ over all components.
func RelL2Tensor(t, u *TensorField) (float64, error) {
	if t.Dim != u.Dim {
		return 0, fmt.Errorf("grid: tensor relL2 dimension mismatch %v != %v", t.Dim, u.Dim)
	}
	num, den := 0.0, 0.0
	for v := range t.Comp {
		w := 1.0
		if v >= VYZ {
			w = 2.0
		}
		for i := range t.Comp[v].Data {
			d := t.Comp[v].Data[i] - u.Comp[v].Data[i]
			num += w * d * d
			den += w * u.Comp[v].Data[i] * u.Comp[v].Data[i]
		}
	}
	if den == 0 {
		if num == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return math.Sqrt(num / den), nil
}
