package grid

// Add returns t + u.
func (t SymTensor) Add(u SymTensor) SymTensor {
	var r SymTensor
	for v := range r {
		r[v] = t[v] + u[v]
	}
	return r
}

// At returns the tensor value at (x, y, z).
func (t *TensorField) At(x, y, z int) SymTensor { return t.AtIndex(t.Dim.Index(x, y, z)) }

// Set stores the tensor value at (x, y, z).
func (t *TensorField) Set(x, y, z int, s SymTensor) { t.SetIndex(t.Dim.Index(x, y, z), s) }
