package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIndexCoordsRoundTrip(t *testing.T) {
	d := Dim3{5, 7, 3}
	for i := 0; i < d.Len(); i++ {
		x, y, z := d.Coords(i)
		if !d.InBounds(x, y, z) {
			t.Fatalf("coords(%d) = (%d,%d,%d) out of bounds", i, x, y, z)
		}
		if got := d.Index(x, y, z); got != i {
			t.Fatalf("index(coords(%d)) = %d", i, got)
		}
	}
}

func TestIndexRowMajorOrder(t *testing.T) {
	d := Dim3{4, 4, 4}
	// x must be the fastest-varying axis.
	if d.Index(1, 0, 0) != 1 {
		t.Errorf("x stride: got %d want 1", d.Index(1, 0, 0))
	}
	if d.Index(0, 1, 0) != 4 {
		t.Errorf("y stride: got %d want 4", d.Index(0, 1, 0))
	}
	if d.Index(0, 0, 1) != 16 {
		t.Errorf("z stride: got %d want 16", d.Index(0, 0, 1))
	}
}

func TestIndexCoordsQuick(t *testing.T) {
	d := Dim3{9, 6, 11}
	f := func(i uint) bool {
		idx := int(i) % d.Len()
		x, y, z := d.Coords(idx)
		return d.Index(x, y, z) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxVolumeAndContains(t *testing.T) {
	b := BoxAt(Point{1, 2, 3}, 2, 3, 4)
	if got := b.Volume(); got != 24 {
		t.Fatalf("volume = %d want 24", got)
	}
	if !b.Contains(1, 2, 3) || !b.Contains(2, 4, 6) {
		t.Error("corner points should be contained")
	}
	if b.Contains(3, 2, 3) || b.Contains(1, 5, 3) || b.Contains(1, 2, 7) {
		t.Error("exclusive high corner must not be contained")
	}
	count := 0
	b.ForEach(func(x, y, z int) {
		if !b.Contains(x, y, z) {
			t.Fatalf("ForEach visited (%d,%d,%d) outside box", x, y, z)
		}
		count++
	})
	if count != 24 {
		t.Fatalf("ForEach visited %d points want 24", count)
	}
}

func TestBoxIntersect(t *testing.T) {
	a := CubeAt(Point{0, 0, 0}, 4)
	b := CubeAt(Point{2, 2, 2}, 4)
	got := a.Intersect(b)
	want := Box{Lo: Point{2, 2, 2}, Hi: Point{4, 4, 4}}
	if got != want {
		t.Fatalf("intersect = %v want %v", got, want)
	}
	c := CubeAt(Point{10, 10, 10}, 2)
	if !a.Intersect(c).Empty() {
		t.Error("disjoint boxes must have empty intersection")
	}
	if a.Overlaps(c) {
		t.Error("disjoint boxes must not overlap")
	}
	if !a.Overlaps(b) {
		t.Error("overlapping boxes must overlap")
	}
}

func TestBoxContainsBox(t *testing.T) {
	outer := CubeAt(Point{0, 0, 0}, 8)
	inner := CubeAt(Point{2, 2, 2}, 4)
	if !outer.ContainsBox(inner) {
		t.Error("outer must contain inner")
	}
	if inner.ContainsBox(outer) {
		t.Error("inner must not contain outer")
	}
	if !outer.ContainsBox(outer) {
		t.Error("box must contain itself")
	}
}

func TestChebyshevDist(t *testing.T) {
	b := CubeAt(Point{4, 4, 4}, 4) // occupies [4,8)^3
	cases := []struct {
		x, y, z int
		want    int
	}{
		{5, 5, 5, 0}, // inside
		{4, 4, 4, 0}, // low corner
		{7, 7, 7, 0}, // high corner (inclusive lattice point)
		{3, 5, 5, 1}, // one step below in x
		{8, 5, 5, 1}, // one step above in x
		{0, 4, 4, 4}, // four steps below
		{10, 10, 10, 3},
		{0, 0, 0, 4},
	}
	for _, c := range cases {
		if got := b.ChebyshevDist(c.x, c.y, c.z); got != c.want {
			t.Errorf("dist(%d,%d,%d) = %d want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestChebyshevDistBox(t *testing.T) {
	a := CubeAt(Point{0, 0, 0}, 4)
	b := CubeAt(Point{6, 0, 0}, 4)
	if got := a.ChebyshevDistBox(b); got != 3 {
		t.Fatalf("box dist = %d want 3", got)
	}
	if got := a.ChebyshevDistBox(a); got != 0 {
		t.Fatalf("self dist = %d want 0", got)
	}
	c := CubeAt(Point{2, 2, 2}, 4)
	if got := a.ChebyshevDistBox(c); got != 0 {
		t.Fatalf("overlap dist = %d want 0", got)
	}
}

// TestTorusDistRangeMatchesBruteForce checks TorusDist at every point, and
// TorusDistRange over every dyadic cell and over random boxes, against the
// distance to the nearest of the box's 27 periodic images taken point by
// point, for boxes at the corner, inside, at the high faces and off any
// lattice.
func TestTorusDistRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{8, 16, 32} {
		d := Cube(n)
		subs := []Box{
			CubeAt(Point{0, 0, 0}, n/4),
			CubeAt(Point{n / 2, n / 2, n / 2}, n/4),
			CubeAt(Point{n - n/4, n - n/4, n - n/4}, n/4),
			CubeAt(Point{0, n - 1, 3}, 1),
			d.Bounds(),
		}
		for i := 0; i < 12; i++ {
			var lo, size Point
			for a := range lo {
				size[a] = 1 + rng.Intn(n)
				lo[a] = rng.Intn(n - size[a] + 1)
			}
			subs = append(subs, BoxAt(lo, size[0], size[1], size[2]))
		}
		for _, sub := range subs {
			dist := make([]int, d.Len())
			for i := range dist {
				x, y, z := d.Coords(i)
				dist[i] = math.MaxInt
				for _, sx := range []int{-n, 0, n} {
					for _, sy := range []int{-n, 0, n} {
						for _, sz := range []int{-n, 0, n} {
							dist[i] = min(dist[i], sub.ChebyshevDist(x+sx, y+sy, z+sz))
						}
					}
				}
				if got := sub.TorusDist(d, x, y, z); got != dist[i] {
					t.Fatalf("n=%d box %v: TorusDist(%d,%d,%d) = %d, brute force %d", n, sub, x, y, z, got, dist[i])
				}
			}
			var cells []Box
			for size := 1; size <= n; size *= 2 {
				for z := 0; z < n; z += size {
					for y := 0; y < n; y += size {
						for x := 0; x < n; x += size {
							cells = append(cells, CubeAt(Point{x, y, z}, size))
						}
					}
				}
			}
			for i := 0; i < 200; i++ {
				var lo, hi Point
				for a := range lo {
					lo[a] = rng.Intn(n)
					hi[a] = lo[a] + 1 + rng.Intn(n-lo[a])
				}
				cells = append(cells, Box{Lo: lo, Hi: hi})
			}
			for _, cell := range cells {
				lo, hi := math.MaxInt, 0
				cell.ForEach(func(x, y, z int) {
					lo, hi = min(lo, dist[d.Index(x, y, z)]), max(hi, dist[d.Index(x, y, z)])
				})
				if gl, gh := sub.TorusDistRange(d, cell); gl != lo || gh != hi {
					t.Fatalf("n=%d box %v cell %v: TorusDistRange = [%d, %d], brute force [%d, %d]", n, sub, cell, gl, gh, lo, hi)
				}
			}
		}
	}
}

func TestFieldExtractInsertRoundTrip(t *testing.T) {
	d := Dim3{8, 8, 8}
	f := NewField(d)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	b := CubeAt(Point{2, 3, 4}, 3)
	sub, err := f.ExtractBox(b)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Dim != (Dim3{3, 3, 3}) {
		t.Fatalf("sub dim = %v", sub.Dim)
	}
	if got, want := sub.At(0, 0, 0), f.At(2, 3, 4); got != want {
		t.Fatalf("corner value %g want %g", got, want)
	}
	g := NewField(d)
	if err := g.InsertBox(b, sub); err != nil {
		t.Fatal(err)
	}
	b.ForEach(func(x, y, z int) {
		if g.At(x, y, z) != f.At(x, y, z) {
			t.Fatalf("mismatch at (%d,%d,%d)", x, y, z)
		}
	})
	// Points outside the box must remain zero.
	if g.At(0, 0, 0) != 0 {
		t.Error("insert leaked outside box")
	}
}

func TestFieldExtractBoxOutOfBounds(t *testing.T) {
	f := NewField(Dim3{4, 4, 4})
	if _, err := f.ExtractBox(CubeAt(Point{2, 2, 2}, 4)); err == nil {
		t.Error("expected error for out-of-bounds box")
	}
}

func TestFieldNorms(t *testing.T) {
	f := NewField(Dim3{2, 2, 2})
	f.Data = []float64{3, 4, 0, 0, 0, 0, 0, 0}
	if got := f.Norm2(); math.Abs(got-5) > 1e-15 {
		t.Errorf("norm2 = %g want 5", got)
	}
	if got := f.MaxAbs(); got != 4 {
		t.Errorf("maxabs = %g want 4", got)
	}
	if got := f.Sum(); got != 7 {
		t.Errorf("sum = %g want 7", got)
	}
	if got := f.Mean(); math.Abs(got-7.0/8.0) > 1e-15 {
		t.Errorf("mean = %g", got)
	}
}

func TestRelL2(t *testing.T) {
	d := Dim3{2, 2, 2}
	f, g := NewField(d), NewField(d)
	g.Fill(2)
	f.Fill(2.2)
	got, err := RelL2(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relL2 = %g want 0.1", got)
	}
	// Identical fields → zero error.
	same, _ := RelL2(g, g)
	if same != 0 {
		t.Errorf("relL2 self = %g want 0", same)
	}
	// Zero reference, nonzero f → +Inf.
	z := NewField(d)
	inf, _ := RelL2(f, z)
	if !math.IsInf(inf, 1) {
		t.Errorf("relL2 vs zero = %g want +Inf", inf)
	}
}

func TestAddScaled(t *testing.T) {
	d := Dim3{2, 2, 1}
	f, g := NewField(d), NewField(d)
	f.Fill(1)
	g.Fill(3)
	if err := f.AddScaled(-2, g); err != nil {
		t.Fatal(err)
	}
	for _, v := range f.Data {
		if v != -5 {
			t.Fatalf("got %g want -5", v)
		}
	}
	if err := f.AddScaled(1, NewField(Dim3{3, 1, 1})); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestComplexFieldRealRoundTrip(t *testing.T) {
	d := Dim3{3, 2, 2}
	f := NewField(d)
	for i := range f.Data {
		f.Data[i] = float64(i) * 0.5
	}
	c := FromReal(f)
	if c.MaxImagAbs() != 0 {
		t.Error("FromReal must have zero imaginary parts")
	}
	back := c.Real()
	if r, _ := RelL2(back, f); r != 0 {
		t.Errorf("round trip error %g", r)
	}
}
