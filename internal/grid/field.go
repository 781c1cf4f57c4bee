package grid

import (
	"fmt"
	"math"
)

// Field is a dense real-valued scalar field on a 3D grid.
type Field struct {
	Dim  Dim3
	Data []float64
}

// NewField allocates a zero-valued field of the given dimensions.
func NewField(d Dim3) *Field {
	return &Field{Dim: d, Data: make([]float64, d.Len())}
}

// At returns the value at (x, y, z).
func (f *Field) At(x, y, z int) float64 { return f.Data[f.Dim.Index(x, y, z)] }

// Set stores v at (x, y, z).
func (f *Field) Set(x, y, z int, v float64) { f.Data[f.Dim.Index(x, y, z)] = v }

// Fill sets every grid point to v.
func (f *Field) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// Zero resets every grid point to zero.
func (f *Field) Zero() { f.Fill(0) }

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	g := NewField(f.Dim)
	copy(g.Data, f.Data)
	return g
}

// AddScaled computes f += s*g pointwise; the dimensions must match.
func (f *Field) AddScaled(s float64, g *Field) error {
	if f.Dim != g.Dim {
		return fmt.Errorf("grid: addScaled dimension mismatch %v != %v", f.Dim, g.Dim)
	}
	for i, v := range g.Data {
		f.Data[i] += s * v
	}
	return nil
}

// Sum returns Σ f over the grid.
func (f *Field) Sum() float64 {
	s := 0.0
	for _, v := range f.Data {
		s += v
	}
	return s
}

// Mean returns the average value over the grid.
func (f *Field) Mean() float64 {
	if len(f.Data) == 0 {
		return 0
	}
	return f.Sum() / float64(len(f.Data))
}

// BoxAllZero reports whether every value inside box b (clipped to the
// grid) is exactly zero, reading in place — the zero-sub-domain skip of
// conv.Decomposed uses it to avoid materializing a copy just to test it.
func (f *Field) BoxAllZero(b Box) bool {
	b = b.Intersect(f.Dim.Bounds())
	for z := b.Lo[2]; z < b.Hi[2]; z++ {
		for y := b.Lo[1]; y < b.Hi[1]; y++ {
			base := f.Dim.Index(b.Lo[0], y, z)
			for x := b.Lo[0]; x < b.Hi[0]; x++ {
				if f.Data[base] != 0 {
					return false
				}
				base++
			}
		}
	}
	return true
}

// ExtractBox copies the values inside box b (which must lie within the
// grid) into a freshly allocated field of the box's size.
func (f *Field) ExtractBox(b Box) (*Field, error) {
	if !f.Dim.Bounds().ContainsBox(b) {
		return nil, fmt.Errorf("grid: box %v outside grid %v", b, f.Dim)
	}
	s := b.Size()
	out := NewField(Dim3{s[0], s[1], s[2]})
	i := 0
	b.ForEach(func(x, y, z int) {
		out.Data[i] = f.At(x, y, z)
		i++
	})
	return out, nil
}

// InsertBox copies the field g into f at box b; g must have the box's size
// and b must lie within the grid.
func (f *Field) InsertBox(b Box, g *Field) error {
	if !f.Dim.Bounds().ContainsBox(b) {
		return fmt.Errorf("grid: box %v outside grid %v", b, f.Dim)
	}
	s := b.Size()
	if (Dim3{s[0], s[1], s[2]}) != g.Dim {
		return fmt.Errorf("grid: insert size mismatch box %v field %v", b, g.Dim)
	}
	i := 0
	b.ForEach(func(x, y, z int) {
		f.Set(x, y, z, g.Data[i])
		i++
	})
	return nil
}

// RelL2 returns the relative L2 error ‖f−g‖₂ / ‖g‖₂, with g as the
// reference. A zero reference with a nonzero f yields +Inf.
func RelL2(f, g *Field) (float64, error) {
	if f.Dim != g.Dim {
		return 0, fmt.Errorf("grid: relL2 dimension mismatch %v != %v", f.Dim, g.Dim)
	}
	num, den := 0.0, 0.0
	for i := range f.Data {
		d := f.Data[i] - g.Data[i]
		num += d * d
		den += g.Data[i] * g.Data[i]
	}
	if den == 0 {
		if num == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return math.Sqrt(num / den), nil
}

// ComplexField is a dense complex-valued field on a 3D grid.
type ComplexField struct {
	Dim  Dim3
	Data []complex128
}

// NewComplexField allocates a zero-valued complex field.
func NewComplexField(d Dim3) *ComplexField {
	return &ComplexField{Dim: d, Data: make([]complex128, d.Len())}
}

// Real extracts the real parts into a new real field.
func (f *ComplexField) Real() *Field {
	g := NewField(f.Dim)
	for i, v := range f.Data {
		g.Data[i] = real(v)
	}
	return g
}

// FromReal builds a complex field from a real one (imaginary parts zero).
func FromReal(f *Field) *ComplexField {
	g := NewComplexField(f.Dim)
	for i, v := range f.Data {
		g.Data[i] = complex(v, 0)
	}
	return g
}
