package sample

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// TestStoredSamplesAreDistinctPoints holds the storage to one sample per
// sampled grid point on the §5.4 trees (far rate 16) at the three bench
// shapes, on the local bench's box at 48 (off the k-lattice) and on a box
// in the grid's far corner, whose shells wrap around the torus. For each
// tree: the stored count is the number of distinct wrapped points a map
// over ForEachSample finds, and both counts are the pinned ones; every slot
// of every cell's lattice view reads the field at its wrapped point; and a
// translated tree shares the index and reads the field at its own points.
func TestStoredSamplesAreDistinctPoints(t *testing.T) {
	for _, c := range []struct {
		n, k          int
		lo            grid.Point
		slots, stored int
	}{
		{32, 8, grid.Point{}, 3753, 1551},
		{64, 16, grid.Point{}, 14128, 9484},
		{128, 32, grid.Point{}, 85490, 70328},
		{128, 32, grid.Point{48, 48, 48}, 87128, 70328},
		{64, 16, grid.Point{48, 48, 48}, 14128, 9484},
	} {
		d := grid.Cube(c.n)
		tree, err := DefaultPolicy(grid.CubeAt(c.lo, c.k), 16).Tree(d)
		if err != nil {
			t.Fatal(err)
		}
		points := map[[3]int]bool{}
		tree.ForEachSample(func(_, _, x, y, z int) { points[[3]int{x, y, z}] = true })
		if tree.SampleCount() != len(points) {
			t.Errorf("%d³/k%d at %v: %d samples stored, %d distinct points", c.n, c.k, c.lo, tree.SampleCount(), len(points))
		}
		if tree.SlotCount() != c.slots || tree.SampleCount() != c.stored {
			t.Errorf("%d³/k%d at %v: %d slots, %d stored; want %d, %d", c.n, c.k, c.lo, tree.SlotCount(), tree.SampleCount(), c.slots, c.stored)
		}

		f := grid.NewField(d)
		rng := rand.New(rand.NewSource(int64(c.n + c.lo[0])))
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		moved := tree.Translate(grid.Point{c.n / 2, 0, c.n / 2})
		if moved.Index() != tree.Index() {
			t.Errorf("%d³/k%d at %v: the translated tree builds its own index", c.n, c.k, c.lo)
		}
		for name, tr := range map[string]*octree.Tree{"tree": tree, "translated": moved} {
			comp, err := Compress(f, tr)
			if err != nil {
				t.Fatal(err)
			}
			var lat []float64
			for i := range tr.Cells {
				lat = comp.AppendLattice(lat, i)
			}
			tr.ForEachSample(func(ci, s, x, y, z int) {
				if math.Float64bits(lat[s]) != math.Float64bits(f.At(x, y, z)) {
					t.Fatalf("%d³/k%d at %v, %s: cell %d slot %d reads %g, the field at (%d,%d,%d) is %g",
						c.n, c.k, c.lo, name, ci, s, lat[s], x, y, z, f.At(x, y, z))
				}
			})
		}
	}
}

// TestDecodeTakesTheLastTreeMoved: a stream whose tree is the last one
// decoded, moved on the torus, decodes onto that tree's index, and one
// whose metadata is not such a move decodes through the full check — to
// the same tree either way.
func TestDecodeTakesTheLastTreeMoved(t *testing.T) {
	d := grid.Cube(32)
	origin, err := DefaultPolicy(grid.CubeAt(grid.Point{}, 8), 16).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(d)
	decode := func(tr *octree.Tree) *Compressed {
		t.Helper()
		c, err := Compress(f, tr)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := c.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeBytes(stream)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Tree.Cells) != len(tr.Cells) || !sameSamples(back.Samples, c.Samples) {
			t.Fatalf("decoded %d cells, %d samples; encoded %d, %d", len(back.Tree.Cells), len(back.Samples), len(tr.Cells), len(c.Samples))
		}
		for i := range tr.Cells {
			if back.Tree.Cells[i] != tr.Cells[i] {
				t.Fatalf("cell %d decoded as %v, encoded %v", i, back.Tree.Cells[i], tr.Cells[i])
			}
		}
		return back
	}
	first := decode(origin)
	if moved := decode(origin.Translate(grid.Point{8, 16, 24})); moved.Tree.Index() != first.Tree.Index() {
		t.Error("a moved tree was rebuilt")
	}
	other, err := DefaultPolicy(grid.CubeAt(grid.Point{4, 4, 4}, 8), 16).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := decode(other); got.Tree.Index() == first.Tree.Index() {
		t.Error("another tree took the last one's index")
	}
}

// sameSamples reports whether a and b hold the same float64 bits.
func sameSamples(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDecodeConcurrently: decoders on several goroutines share the last
// tree and build indexes at once, and each still returns its own stream's
// tree and samples.
func TestDecodeConcurrently(t *testing.T) {
	d := grid.Cube(32)
	f := smoothField(d)
	var streams [][]byte
	var want []*Compressed
	for _, lo := range []grid.Point{{}, {8, 16, 24}, {4, 4, 4}} {
		tr, err := DefaultPolicy(grid.CubeAt(lo, 8), 16).Tree(d)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compress(f, tr)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := c.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		streams, want = append(streams, stream), append(want, c)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 30 {
				j := (g + i) % len(streams)
				got, err := decodeBytes(streams[j])
				if err != nil {
					t.Error(err)
					return
				}
				if len(got.Tree.Cells) != len(want[j].Tree.Cells) || got.Tree.Cells[0] != want[j].Tree.Cells[0] ||
					!sameSamples(got.AppendLattice(nil, 0), want[j].AppendLattice(nil, 0)) {
					t.Errorf("goroutine %d: stream %d decoded to another tree", g, j)
					return
				}
			}
		}()
	}
	wg.Wait()
}
