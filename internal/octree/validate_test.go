package octree

import (
	"fmt"
	"math/rand"
	"testing"

	"lowcomm3d/internal/grid"
)

// validatePairwise is the O(cells²) check Validate used to be, kept as the
// reference oracle for the corner-parity check that replaced it: the same
// per-cell conditions, every pair of cells tested for overlap, and the
// volumes summed. Only meaningful while the volume sum cannot overflow —
// TestValidateRejectsStackedCellsOverflow covers the case where it does.
func validatePairwise(t *Tree) error {
	vol := 0
	bounds := t.Dim.Bounds()
	for i, c := range t.Cells {
		s := c.Box.Size()
		if s[0] != s[1] || s[1] != s[2] {
			return fmt.Errorf("cell %d box %v not cubic", i, c.Box)
		}
		if s[0] < 1 {
			return fmt.Errorf("cell %d box %v is empty", i, c.Box)
		}
		if !bounds.ContainsBox(c.Box) {
			return fmt.Errorf("cell %d box %v outside grid", i, c.Box)
		}
		if c.Rate < 1 || c.Rate&(c.Rate-1) != 0 {
			return fmt.Errorf("cell %d rate %d invalid", i, c.Rate)
		}
		if s[0]%c.Rate != 0 {
			return fmt.Errorf("cell %d rate %d does not divide size %d", i, c.Rate, s[0])
		}
		if c.Box.Lo[0]%c.Rate != 0 || c.Box.Lo[1]%c.Rate != 0 || c.Box.Lo[2]%c.Rate != 0 {
			return fmt.Errorf("cell %d corner %v off the rate-%d lattice", i, c.Box.Lo, c.Rate)
		}
		for j := i + 1; j < len(t.Cells); j++ {
			if c.Box.Overlaps(t.Cells[j].Box) {
				return fmt.Errorf("cells %d and %d overlap", i, j)
			}
		}
		vol += c.Box.Volume()
	}
	if vol != t.Dim.Len() {
		return fmt.Errorf("cells cover %d points, grid has %d", vol, t.Dim.Len())
	}
	return nil
}

// agree fails the test when Validate and the pairwise reference disagree on
// t, and reports whether both accepted it.
func agree(tb testing.TB, t *Tree) bool {
	tb.Helper()
	got, want := t.Validate(), validatePairwise(t)
	if (got == nil) != (want == nil) {
		tb.Fatalf("Validate = %v, pairwise reference = %v, on n=%v cells=%+v", got, want, t.Dim, t.Cells)
	}
	return got == nil
}

// randomTiling tiles the n³ grid (any n, not only powers of two) with
// random cubes: the first uncovered point in scan order gets a cube of a
// random size that still fits. Rates divide sizes and corners.
func randomTiling(rng *rand.Rand, n int) *Tree {
	t := &Tree{Dim: grid.Cube(n)}
	d := t.Dim
	covered := make([]bool, d.Len())
	free := func(b grid.Box) bool {
		ok := d.Bounds().ContainsBox(b)
		if ok {
			b.ForEach(func(x, y, z int) { ok = ok && !covered[d.Index(x, y, z)] })
		}
		return ok
	}
	for i := range covered {
		if covered[i] {
			continue
		}
		x, y, z := d.Coords(i)
		size := 1
		for want := 1 + max(rng.Intn(n), rng.Intn(n)); size < want && free(grid.CubeAt(grid.Point{x, y, z}, size+1)); {
			size++
		}
		b := grid.CubeAt(grid.Point{x, y, z}, size)
		b.ForEach(func(x, y, z int) { covered[d.Index(x, y, z)] = true })
		rate := 1
		for r := rate * 2; r <= size && size%r == 0 && x%r == 0 && y%r == 0 && z%r == 0 && rng.Intn(2) == 0; r *= 2 {
			rate = r
		}
		t.Cells = append(t.Cells, Cell{Box: b, Rate: rate})
	}
	return t
}

// mutate damages (or merely reorders) a tree in place the ways a corrupt
// or forged metadata block would: a shifted, resized, duplicated, appended,
// dropped, emptied or swapped cell, or a bad rate.
func mutate(rng *rand.Rand, t *Tree) {
	n := t.Dim.Nx
	i, j := rng.Intn(len(t.Cells)), rng.Intn(len(t.Cells))
	c := &t.Cells[i]
	switch rng.Intn(10) {
	case 0: // shift along one axis
		axis, by := rng.Intn(3), 1+rng.Intn(2)
		if rng.Intn(2) == 0 {
			by = -by
		}
		c.Box.Lo[axis] += by
		c.Box.Hi[axis] += by
	case 1: // resize
		c.Box = grid.CubeAt(c.Box.Lo, rng.Intn(n+2))
	case 2: // duplicate
		t.Cells = append(t.Cells, *c)
	case 3: // append a random cube
		lo := grid.Point{rng.Intn(n+2) - 1, rng.Intn(n+2) - 1, rng.Intn(n+2) - 1}
		t.Cells = append(t.Cells, Cell{Box: grid.CubeAt(lo, rng.Intn(n+1)), Rate: 1})
	case 4: // drop
		t.Cells = append(t.Cells[:i], t.Cells[i+1:]...)
	case 5: // swap two cells: still the same tiling
		t.Cells[i], t.Cells[j] = t.Cells[j], t.Cells[i]
	case 6: // swap two cells' corners, keeping sizes: a tiling only if the sizes match
		si, sj := c.Box.Size()[0], t.Cells[j].Box.Size()[0]
		c.Box, t.Cells[j].Box = grid.CubeAt(t.Cells[j].Box.Lo, si), grid.CubeAt(c.Box.Lo, sj)
	case 7: // empty or inverted cell, in or out of the grid
		lo := c.Box.Lo
		c.Box.Hi = grid.Point{lo[0] - rng.Intn(2), lo[1] - rng.Intn(2), lo[2] - rng.Intn(2)}
	case 8: // bad rate
		c.Rate = []int{0, -1, 3, 2 * c.Box.Size()[0], 6}[rng.Intn(5)]
	case 9: // stretch one axis
		c.Box.Hi[rng.Intn(3)]++
	}
}

// TestValidateMatchesPairwise is the differential test behind the
// linear-time Validate: on ≥ 10⁵ trees — random tilings of grids that are
// not all powers of two, Build trees, unstructured cube sets, and mutated
// copies of each — it must accept exactly what the pairwise check accepts.
func TestValidateMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	accepted, rejected := 0, 0
	count := func(tr *Tree) {
		if agree(t, tr) {
			accepted++
		} else {
			rejected++
		}
	}
	maybeMutate := func(tr *Tree) {
		for rng.Intn(2) == 0 && len(tr.Cells) > 0 {
			mutate(rng, tr)
		}
	}
	for i := 0; i < 90_000; i++ {
		tr := randomTiling(rng, []int{2, 2, 3, 3, 4, 4, 6, 8}[rng.Intn(8)]) // small grids more often: the oracle is quadratic
		if i%4 == 0 {
			rng.Shuffle(len(tr.Cells), func(a, b int) { tr.Cells[a], tr.Cells[b] = tr.Cells[b], tr.Cells[a] })
		}
		maybeMutate(tr)
		count(tr)
	}
	for i := 0; i < 10_000; i++ { // unstructured cube sets: almost all rejected
		n := []int{2, 3, 4, 6, 8}[rng.Intn(5)]
		tr := &Tree{Dim: grid.Cube(n)}
		for c := rng.Intn(12); c > 0; c-- {
			lo := grid.Point{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
			tr.Cells = append(tr.Cells, Cell{Box: grid.CubeAt(lo, 1+rng.Intn(n)), Rate: 1})
		}
		count(tr)
	}
	for i := 0; i < 10_000; i++ { // Build trees with a random refinement pattern
		split := rng.Intn(4)
		tr, err := Build(grid.Cube(16), func(b grid.Box) int {
			if size := b.Hi[0] - b.Lo[0]; size > 8 || (size > 2 && rng.Intn(8) < split) {
				return 0
			}
			return 1 << rng.Intn(3)
		})
		if err != nil {
			t.Fatal(err)
		}
		maybeMutate(tr)
		count(tr)
	}
	t.Logf("%d trees: %d accepted, %d rejected", accepted+rejected, accepted, rejected)
	if total := accepted + rejected; total < 100_000 || accepted < total/5 || rejected < total/5 {
		t.Errorf("unbalanced corpus: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestValidateRejectsStackedCellsOverflow pins the overflow guard the
// parity argument depends on: 17 full-grid cells at n = 2²⁰ have even
// corner parity (18 boxes at each of the grid's corners) and volumes that
// wrap an int sum back to exactly N³, so only an exact running sum rejects
// them.
func TestValidateRejectsStackedCellsOverflow(t *testing.T) {
	const n = MaxGridSize
	tr := &Tree{Dim: grid.Cube(n)}
	for i := 0; i < 17; i++ {
		tr.Cells = append(tr.Cells, Cell{Box: grid.CubeAt(grid.Point{}, n), Rate: 1})
	}
	wrapped := 0
	for _, c := range tr.Cells {
		wrapped += c.Box.Volume()
	}
	if wrapped != tr.Dim.Len() {
		t.Fatalf("premise: wrapped volume sum %d != N³ %d", wrapped, tr.Dim.Len())
	}
	if err := tr.Validate(); err == nil {
		t.Error("17 stacked full-grid cells must fail validation")
	}
	tr.Cells = tr.Cells[:1]
	if err := tr.Validate(); err != nil {
		t.Errorf("single full-grid cell: %v", err)
	}
	tr.Dim = grid.Cube(2 * n)
	if err := tr.Validate(); err == nil {
		t.Error("a grid beyond MaxGridSize must fail validation")
	}
}

// TestValidateDetectsEmptyCell: a cell of zero or negative size holds no
// point, overlaps nothing and has volume 0, so a valid tiling stays "valid"
// with any number of them appended — anywhere, even outside the grid —
// unless size < 1 is rejected outright.
func TestValidateDetectsEmptyCell(t *testing.T) {
	for name, empty := range map[string]grid.Box{
		"zero size inside":      grid.CubeAt(grid.Point{4, 4, 4}, 0),
		"zero size outside":     grid.CubeAt(grid.Point{100, -3, 9}, 0),
		"negative size":         grid.CubeAt(grid.Point{4, 4, 4}, -2),
		"negative size outside": grid.CubeAt(grid.Point{-1, -1, -1}, -4),
	} {
		tr, err := Build(grid.Cube(8), uniformRate(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		tr.Cells = append(tr.Cells, Cell{Box: empty, Rate: 1})
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: tree with an empty cell %v must fail validation", name, empty)
		}
	}
}

// cellBytes is the fuzz encoding of a cell list: x, y, z, size, rate as
// one int8 each.
func cellBytes(cells []Cell) []byte {
	var out []byte
	for _, c := range cells {
		out = append(out, byte(c.Box.Lo[0]), byte(c.Box.Lo[1]), byte(c.Box.Lo[2]), byte(c.Box.Size()[0]), byte(c.Rate))
	}
	return out
}

// FuzzValidateMatchesPairwise asserts Validate ≡ the pairwise reference on
// arbitrary cube lists over grids of up to 64³ (coordinates, sizes and
// rates are int8, so negative and out-of-grid values are reachable).
func FuzzValidateMatchesPairwise(f *testing.F) {
	tr, err := Build(grid.Cube(8), uniformRate(4, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(8, cellBytes(tr.Cells))
	f.Add(8, cellBytes(append(tr.Cells[:3:3], tr.Cells[2:]...))) // duplicated cell
	f.Add(2, []byte{0, 0, 0, 2, 1})
	f.Add(2, []byte{0, 0, 0, 2, 1, 1, 1, 1, 0, 1}) // trailing empty cell
	f.Add(3, []byte{})
	f.Fuzz(func(t *testing.T, n int, data []byte) {
		if n < 0 || n > 64 || len(data) > 5*256 {
			t.Skip() // keep the quadratic oracle cheap
		}
		tr := &Tree{Dim: grid.Cube(n)}
		for ; len(data) >= 5; data = data[5:] {
			lo := grid.Point{int(int8(data[0])), int(int8(data[1])), int(int8(data[2]))}
			tr.Cells = append(tr.Cells, Cell{Box: grid.CubeAt(lo, int(int8(data[3]))), Rate: int(int8(data[4]))})
		}
		agree(t, tr)
	})
}
