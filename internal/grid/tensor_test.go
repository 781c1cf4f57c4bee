package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVoigtIndexSymmetry(t *testing.T) {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if VoigtIndex(i, j) != VoigtIndex(j, i) {
				t.Errorf("VoigtIndex(%d,%d) != VoigtIndex(%d,%d)", i, j, j, i)
			}
		}
	}
}

func TestVoigtPairRoundTrip(t *testing.T) {
	for v := 0; v < NumVoigt; v++ {
		i, j := VoigtPair(v)
		if i > j {
			t.Errorf("VoigtPair(%d) = (%d,%d) not ordered", v, i, j)
		}
		if got := VoigtIndex(i, j); got != v {
			t.Errorf("VoigtIndex(VoigtPair(%d)) = %d", v, got)
		}
	}
}

func TestVoigtIndexDistinct(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			v := VoigtIndex(i, j)
			if v < 0 || v >= NumVoigt {
				t.Fatalf("VoigtIndex(%d,%d) = %d out of range", i, j, v)
			}
			if seen[v] {
				t.Fatalf("VoigtIndex(%d,%d) = %d duplicated", i, j, v)
			}
			seen[v] = true
		}
	}
}

func TestSymTensorAlgebra(t *testing.T) {
	a := SymTensor{1, 2, 3, 4, 5, 6}
	b := SymTensor{6, 5, 4, 3, 2, 1}
	sum := a.Add(b)
	for v := range sum {
		if sum[v] != 7 {
			t.Fatalf("sum[%d] = %g", v, sum[v])
		}
	}
	diff := a.Sub(a)
	for v := range diff {
		if diff[v] != 0 {
			t.Fatalf("diff[%d] = %g", v, diff[v])
		}
	}
	if got := a.Trace(); got != 6 {
		t.Fatalf("trace = %g want 6", got)
	}
}

func TestSymTensorNorm(t *testing.T) {
	// Pure shear: only xy component set to 1; the full tensor has two
	// entries of 1, so Frobenius norm is sqrt(2).
	var s SymTensor
	s[VXY] = 1
	if got, want := s.Norm(), math.Sqrt2; math.Abs(got-want) > 1e-15 {
		t.Errorf("norm = %g want %g", got, want)
	}
	var d SymTensor
	d[VXX], d[VYY], d[VZZ] = 1, 1, 1
	if got, want := d.Norm(), math.Sqrt(3); math.Abs(got-want) > 1e-15 {
		t.Errorf("norm = %g want %g", got, want)
	}
}

func TestTensorFieldSetAt(t *testing.T) {
	d := Dim3{4, 4, 4}
	tf := NewTensorField(d)
	want := SymTensor{1, 2, 3, 4, 5, 6}
	tf.Set(1, 2, 3, want)
	if got := tf.At(1, 2, 3); got != want {
		t.Fatalf("At = %v want %v", got, want)
	}
	if got := tf.At(0, 0, 0); got != (SymTensor{}) {
		t.Fatalf("untouched point = %v want zero", got)
	}
	i := d.Index(1, 2, 3)
	if got := tf.AtIndex(i); got != want {
		t.Fatalf("AtIndex = %v", got)
	}
	tf.SetIndex(0, want)
	if got := tf.At(0, 0, 0); got != want {
		t.Fatalf("SetIndex did not store: %v", got)
	}
}

func TestTensorFieldMean(t *testing.T) {
	tf := NewTensorField(Dim3{2, 1, 1})
	tf.Set(0, 0, 0, SymTensor{2, 0, 0, 0, 0, 0})
	tf.Set(1, 0, 0, SymTensor{4, 0, 0, 0, 0, 0})
	m := tf.Mean()
	if m[VXX] != 3 {
		t.Fatalf("mean xx = %g want 3", m[VXX])
	}
}

func TestRelL2TensorSelfZero(t *testing.T) {
	tf := NewTensorField(Dim3{3, 3, 3})
	tf.Fill(SymTensor{1, -1, 2, 0.5, 0, 3})
	got, err := RelL2Tensor(tf, tf)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("self relL2 = %g", got)
	}
}

func TestTensorFieldCloneIndependent(t *testing.T) {
	tf := NewTensorField(Dim3{2, 2, 2})
	tf.Fill(SymTensor{1, 1, 1, 1, 1, 1})
	cl := tf.Clone()
	cl.Set(0, 0, 0, SymTensor{})
	if tf.At(0, 0, 0) == (SymTensor{}) {
		t.Error("clone shares storage with original")
	}
}

func TestSymTensorNormQuick(t *testing.T) {
	// Property: Norm(c·s) == |c|·Norm(s).
	f := func(a, b, c, d, e, g float64, scale float64) bool {
		s := SymTensor{a, b, c, d, e, g}
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return 1
			}
			return x
		}
		for i := range s {
			s[i] = clamp(s[i])
		}
		scale = clamp(scale)
		scaled := s
		for i := range scaled {
			scaled[i] *= scale
		}
		lhs := scaled.Norm()
		rhs := math.Abs(scale) * s.Norm()
		if rhs == 0 {
			return lhs == 0
		}
		return math.Abs(lhs-rhs)/rhs < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
