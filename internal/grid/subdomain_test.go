package grid

import "testing"

func TestDecomposeCoversGridDisjointly(t *testing.T) {
	d := Dim3{8, 8, 8}
	boxes, err := Decompose(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 8 {
		t.Fatalf("got %d boxes want 8", len(boxes))
	}
	covered := make([]int, d.Len())
	for _, b := range boxes {
		if b.Volume() != 64 {
			t.Fatalf("box %v volume %d want 64", b, b.Volume())
		}
		b.ForEach(func(x, y, z int) {
			covered[d.Index(x, y, z)]++
		})
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("point %d covered %d times", i, c)
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(Dim3{10, 10, 10}, 4); err == nil {
		t.Error("expected error for non-divisible size")
	}
	if _, err := Decompose(Dim3{8, 8, 8}, 0); err == nil {
		t.Error("expected error for zero k")
	}
	if _, err := Decompose(Dim3{8, 8, 8}, -2); err == nil {
		t.Error("expected error for negative k")
	}
}

func TestDecomposeSingleBox(t *testing.T) {
	d := Dim3{4, 4, 4}
	boxes, err := Decompose(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 || boxes[0] != d.Bounds() {
		t.Fatalf("got %v", boxes)
	}
}

func TestDecomposeAdaptiveSparse(t *testing.T) {
	d := Dim3{Nx: 32, Ny: 32, Nz: 32}
	f := NewField(d)
	// One active point: the partition must shrink to a single minK cube.
	f.Set(5, 9, 17, 1)
	boxes, err := DecomposeAdaptive(d, 16, 4, ActiveNonzero(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("boxes = %v want a single 4-cube", boxes)
	}
	b := boxes[0]
	if s := b.Size(); s[0] != 4 {
		t.Fatalf("box size %v want 4", s)
	}
	if !b.ContainsBox(BoxAt(Point{5, 9, 17}, 1, 1, 1)) {
		t.Fatalf("box %v misses the active point", b)
	}
}

func TestDecomposeAdaptiveDenseKeepsMaxCubes(t *testing.T) {
	d := Dim3{Nx: 16, Ny: 16, Nz: 16}
	f := NewField(d)
	f.Fill(1)
	boxes, err := DecomposeAdaptive(d, 8, 2, ActiveNonzero(f))
	if err != nil {
		t.Fatal(err)
	}
	// Fully active: 8 max-size cubes, never subdivided.
	if len(boxes) != 8 {
		t.Fatalf("boxes = %d want 8", len(boxes))
	}
	for _, b := range boxes {
		if s := b.Size(); s[0] != 8 {
			t.Fatalf("box %v should be a max cube", b)
		}
	}
}

func TestDecomposeAdaptiveCoversActiveDisjointly(t *testing.T) {
	d := Dim3{Nx: 32, Ny: 32, Nz: 32}
	f := NewField(d)
	f.Set(0, 0, 0, 1)
	f.Set(31, 31, 31, 1)
	f.Set(10, 20, 5, 1)
	boxes, err := DecomposeAdaptive(d, 16, 4, ActiveNonzero(f))
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int]int{}
	for _, b := range boxes {
		b.ForEach(func(x, y, z int) { covered[d.Index(x, y, z)]++ })
	}
	for i, c := range covered {
		if c > 1 {
			t.Fatalf("point %d covered %d times", i, c)
		}
	}
	for _, p := range []Point{{0, 0, 0}, {31, 31, 31}, {10, 20, 5}} {
		if covered[d.Index(p[0], p[1], p[2])] != 1 {
			t.Fatalf("active point %v not covered", p)
		}
	}
}

func TestDecomposeAdaptiveErrors(t *testing.T) {
	d := Dim3{Nx: 16, Ny: 16, Nz: 16}
	always := func(Box) bool { return true }
	if _, err := DecomposeAdaptive(Dim3{Nx: 16, Ny: 16, Nz: 8}, 8, 2, always); err == nil {
		t.Error("non-cubic should fail")
	}
	if _, err := DecomposeAdaptive(d, 8, 0, always); err == nil {
		t.Error("zero min should fail")
	}
	if _, err := DecomposeAdaptive(d, 4, 8, always); err == nil {
		t.Error("min > max should fail")
	}
	if _, err := DecomposeAdaptive(d, 6, 2, always); err == nil {
		t.Error("non power-of-two should fail")
	}
	if _, err := DecomposeAdaptive(d, 32, 2, always); err == nil {
		t.Error("max > grid should fail")
	}
}
