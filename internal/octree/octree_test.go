package octree

import (
	"errors"
	"testing"

	"lowcomm3d/internal/grid"
)

// FindCell returns the index of the cell containing (x, y, z), or -1, by a
// linear scan over the cells: the reference the Locator is held to.
func (t *Tree) FindCell(x, y, z int) int {
	for i, c := range t.Cells {
		if c.Box.ContainsBox(grid.BoxAt(grid.Point{x, y, z}, 1, 1, 1)) {
			return i
		}
	}
	return -1
}

// chebyshevDistBox returns the minimum L∞ lattice distance between any
// point of b and any point of c (zero if they overlap): the shells of the
// test trees' rate functions.
func chebyshevDistBox(b, c grid.Box) int {
	d := 0
	for i := 0; i < 3; i++ {
		switch {
		case c.Hi[i] <= b.Lo[i]:
			d = max(d, b.Lo[i]-(c.Hi[i]-1))
		case c.Lo[i] >= b.Hi[i]:
			d = max(d, c.Lo[i]-(b.Hi[i]-1))
		}
	}
	return d
}

// uniformRate returns a RateFunc emitting fixed-rate cells of the given
// cell size.
func uniformRate(cellSize, rate int) RateFunc {
	return func(b grid.Box) int {
		if b.Hi[0]-b.Lo[0] > cellSize {
			return 0
		}
		return rate
	}
}

func TestBuildUniform(t *testing.T) {
	tr, err := Build(grid.Cube(16), uniformRate(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CellCount(); got != 64 {
		t.Fatalf("cells = %d want 64", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each 4³ cell at rate 2 has (4/2+1)³ = 27 slots; the distinct points
	// are the rate-2 lattice of the 16³ torus, 8³.
	if got := tr.SlotCount(); got != 64*27 {
		t.Fatalf("slots = %d want %d", got, 64*27)
	}
	if got := tr.SampleCount(); got != 512 {
		t.Fatalf("samples = %d want 512", got)
	}
}

func TestBuildSingleCell(t *testing.T) {
	tr, err := Build(grid.Cube(8), func(grid.Box) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if tr.CellCount() != 1 {
		t.Fatalf("cells = %d want 1", tr.CellCount())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 8³ at rate 1: 9³ slots, whose end planes wrap onto the first: 8³
	// samples.
	if got := tr.SlotCount(); got != 729 {
		t.Fatalf("slots = %d want 729", got)
	}
	if got := tr.SampleCount(); got != 512 {
		t.Fatalf("samples = %d want 512", got)
	}
}

func TestBuildRateClampedToCellSize(t *testing.T) {
	// Request rate 16 in 4-wide cells: must clamp to 4.
	tr, err := Build(grid.Cube(8), uniformRate(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Cells {
		if c.Rate != 4 {
			t.Fatalf("rate = %d want clamped 4", c.Rate)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(grid.Dim3{Nx: 8, Ny: 8, Nz: 4}, uniformRate(4, 1)); err == nil {
		t.Error("non-cubic grid should fail")
	}
	if _, err := Build(grid.Cube(12), uniformRate(4, 1)); err == nil {
		t.Error("non power-of-two grid should fail")
	}
	if _, err := Build(grid.Cube(8), func(grid.Box) int { return 3 }); err == nil {
		t.Error("non power-of-two rate should fail")
	}
	if _, err := Build(grid.Cube(8), func(grid.Box) int { return -1 }); err == nil {
		t.Error("negative rate should fail")
	}
}

func TestBuildAdaptive(t *testing.T) {
	// Fine rate inside a corner sub-domain, coarse elsewhere.
	sub := grid.CubeAt(grid.Point{0, 0, 0}, 8)
	rate := func(b grid.Box) int {
		switch {
		case sub.ContainsBox(b):
			return 1
		case sub.Overlaps(b):
			return 0
		default:
			return 8
		}
	}
	tr, err := Build(grid.Cube(32), rate)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// The corner cell must be rate 1, far cells rate 8.
	ci := tr.FindCell(0, 0, 0)
	if ci < 0 || tr.Cells[ci].Rate != 1 {
		t.Errorf("corner cell rate: %+v", tr.Cells[ci])
	}
	cj := tr.FindCell(31, 31, 31)
	if cj < 0 || tr.Cells[cj].Rate != 8 {
		t.Errorf("far cell rate: %+v", tr.Cells[cj])
	}
	if tr.MaxRate() != 8 {
		t.Errorf("max rate = %d", tr.MaxRate())
	}
}

func TestForEachSampleIndicesAndWrap(t *testing.T) {
	tr, err := Build(grid.Cube(8), uniformRate(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	total := tr.SlotCount()
	seen := 0
	lastIdx := -1
	tr.ForEachSample(func(cell, sample, x, y, z int) {
		if sample != lastIdx+1 {
			t.Fatalf("sample index jumped from %d to %d", lastIdx, sample)
		}
		lastIdx = sample
		if x < 0 || x >= 8 || y < 0 || y >= 8 || z < 0 || z >= 8 {
			t.Fatalf("sample (%d,%d,%d) outside grid after wrap", x, y, z)
		}
		seen++
	})
	if seen != total {
		t.Fatalf("visited %d samples want %d", seen, total)
	}
}

// TestForEachSampleMatchesReference pins the visiting order — it is the
// slot order of the lattice view, of the metadata's cumulative counts and
// of every patch — against the walk ForEachSample replaced: three modulo
// wraps per slot.
func TestForEachSampleMatchesReference(t *testing.T) {
	uniform, err := Build(grid.Cube(8), uniformRate(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Tree{"uniform": uniform, "adaptive": locatorTree(t)} {
		type visit struct{ cell, sample, x, y, z int }
		var want []visit
		n := tr.Dim.Nx
		for ci, c := range tr.Cells {
			m := c.LatticePoints()
			for iz := 0; iz < m; iz++ {
				for iy := 0; iy < m; iy++ {
					for ix := 0; ix < m; ix++ {
						want = append(want, visit{ci, len(want),
							(c.Box.Lo[0] + ix*c.Rate) % n, (c.Box.Lo[1] + iy*c.Rate) % n, (c.Box.Lo[2] + iz*c.Rate) % n})
					}
				}
			}
		}
		i := 0
		tr.ForEachSample(func(cell, sample, x, y, z int) {
			if got := (visit{cell, sample, x, y, z}); i >= len(want) || got != want[i] {
				t.Fatalf("%s: visit %d = %+v, reference has %d visits, this one %+v", name, i, got, len(want), want[min(i, len(want)-1)])
			}
			i++
		})
		if i != len(want) {
			t.Fatalf("%s: %d visits, reference %d", name, i, len(want))
		}
	}
}

// TestCellOffsets: each cell's lattice is its m³ slots, the cells in
// order, and the samples are numbered as their points are first seen.
func TestCellOffsets(t *testing.T) {
	tr, err := Build(grid.Cube(16), uniformRate(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	x, slots, next := tr.Index(), 0, int32(0)
	for i, c := range tr.Cells {
		v := x.Cell(i)
		if len(v) != c.SlotCount() || &v[0] != &x.slot[slots] {
			t.Fatalf("cell %d: %d slots from slot %d, want %d from %d", i, len(v), int(x.cell[i]), c.SlotCount(), slots)
		}
		for _, s := range v {
			if s > next {
				t.Fatalf("cell %d reads sample %d before sample %d is stored", i, s, next)
			}
			if s == next {
				next++
			}
		}
		slots += len(v)
	}
	if slots != len(x.slot) || slots != tr.SlotCount() || int(next) != tr.SampleCount() {
		t.Fatalf("cells cover %d slots and %d samples, index %d slots, tree %d and %d",
			slots, next, len(x.slot), tr.SlotCount(), tr.SampleCount())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sub := grid.CubeAt(grid.Point{8, 8, 8}, 8)
	rate := func(b grid.Box) int {
		switch {
		case sub.ContainsBox(b):
			return 1
		case sub.Overlaps(b):
			return 0
		case chebyshevDistBox(sub, b) <= 4:
			return 2
		default:
			return 8
		}
	}
	tr, err := Build(grid.Cube(32), rate)
	if err != nil {
		t.Fatal(err)
	}
	meta := tr.EncodeMeta()
	if len(meta) != IntsPerCell*tr.CellCount() {
		t.Fatalf("meta length %d", len(meta))
	}
	back, err := DecodeMeta(32, meta, tr.SlotCount())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(tr.Cells) {
		t.Fatalf("decoded %d cells want %d", len(back.Cells), len(tr.Cells))
	}
	for i := range tr.Cells {
		if tr.Cells[i] != back.Cells[i] {
			t.Fatalf("cell %d: %+v != %+v", i, tr.Cells[i], back.Cells[i])
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMetaErrors(t *testing.T) {
	if _, err := DecodeMeta(8, make([]int32, 7), 10); err == nil {
		t.Error("ragged metadata should fail")
	}
	// Non-cubic sample count.
	bad := []int32{0, 0, 0, 1, 0}
	if _, err := DecodeMeta(8, bad, 7); err == nil {
		t.Error("non-cube count should fail")
	}
	if _, err := DecodeMeta(8, bad, 0); err == nil {
		t.Error("non-positive count should fail")
	}
	badRate := []int32{0, 0, 0, 0, 0}
	if _, err := DecodeMeta(8, badRate, 8); err == nil {
		t.Error("zero rate should fail")
	}
}

func TestMetadataBytesSmall(t *testing.T) {
	// The paper stresses the metadata footprint is "quite small": for a
	// realistic adaptive tree over 128³ the metadata must be well under
	// the size of even one grid plane.
	sub := grid.CubeAt(grid.Point{32, 32, 32}, 32)
	rate := func(b grid.Box) int {
		switch {
		case sub.ContainsBox(b):
			return 1
		case sub.Overlaps(b):
			return 0
		case chebyshevDistBox(sub, b) <= 16:
			return 2
		case chebyshevDistBox(sub, b) <= 128:
			return 8
		default:
			return 16
		}
	}
	tr, err := Build(grid.Cube(128), rate)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	planeBytes := 128 * 128 * 8
	if got := tr.MetadataBytes(); got >= planeBytes {
		t.Errorf("metadata %d bytes not << plane %d bytes", got, planeBytes)
	}
}

func TestValidateDetectsOverlap(t *testing.T) {
	tr := &Tree{Dim: grid.Cube(8)}
	tr.Cells = []Cell{
		{Box: grid.CubeAt(grid.Point{0, 0, 0}, 8), Rate: 1},
		{Box: grid.CubeAt(grid.Point{4, 4, 4}, 4), Rate: 1},
	}
	if err := tr.Validate(); err == nil {
		t.Error("overlapping cells must fail validation")
	}
}

func TestValidateDetectsGap(t *testing.T) {
	tr := &Tree{Dim: grid.Cube(8)}
	tr.Cells = []Cell{{Box: grid.CubeAt(grid.Point{0, 0, 0}, 4), Rate: 1}}
	if err := tr.Validate(); err == nil {
		t.Error("partial cover must fail validation")
	}
}

// TestValidateRejectsOffLatticeCell: a tiling of 3³ by one 2³ cell at
// corner (1,1,1) and unit cells is valid at rate 1, and refused with an
// *OffLatticeError naming the cell at rate 2, whose corner is odd.
func TestValidateRejectsOffLatticeCell(t *testing.T) {
	off := grid.CubeAt(grid.Point{1, 1, 1}, 2)
	tr := &Tree{Dim: grid.Cube(3), Cells: []Cell{{Box: off, Rate: 1}}}
	grid.Cube(3).Bounds().ForEach(func(x, y, z int) {
		if !off.ContainsBox(grid.CubeAt(grid.Point{x, y, z}, 1)) {
			tr.Cells = append(tr.Cells, Cell{Box: grid.CubeAt(grid.Point{x, y, z}, 1), Rate: 1})
		}
	})
	if err := tr.Validate(); err != nil {
		t.Fatalf("rate-1 tiling: %v", err)
	}
	tr.Cells[0].Rate = 2
	var lat *OffLatticeError
	if err := tr.Validate(); !errors.As(err, &lat) || lat.Cell != tr.Cells[0] {
		t.Errorf("rate-2 cell at an odd corner: got %v, want an *OffLatticeError for %v", err, tr.Cells[0])
	}
	if !(Cell{Box: grid.CubeAt(grid.Point{4, 0, 8}, 4), Rate: 4}).OnLattice() {
		t.Error("a rate-4 cell at (4,0,8) is on its lattice")
	}
}

func TestFindCellMiss(t *testing.T) {
	tr := &Tree{Dim: grid.Cube(8)}
	tr.Cells = []Cell{{Box: grid.CubeAt(grid.Point{0, 0, 0}, 4), Rate: 1}}
	if got := tr.FindCell(7, 7, 7); got != -1 {
		t.Errorf("FindCell miss = %d want -1", got)
	}
}

func TestLocatorMatchesFindCell(t *testing.T) {
	sub := grid.CubeAt(grid.Point{8, 8, 8}, 8)
	rate := func(b grid.Box) int {
		switch {
		case sub.ContainsBox(b):
			return 1
		case sub.Overlaps(b):
			return 0
		case chebyshevDistBox(sub, b) <= 4:
			return 2
		default:
			return 8
		}
	}
	tr, err := Build(grid.Cube(32), rate)
	if err != nil {
		t.Fatal(err)
	}
	loc := NewLocator(tr)
	for z := 0; z < 32; z += 3 {
		for y := 0; y < 32; y += 3 {
			for x := 0; x < 32; x += 3 {
				if got, want := loc.Find(x, y, z), tr.FindCell(x, y, z); got != want {
					t.Fatalf("(%d,%d,%d): locator %d scan %d", x, y, z, got, want)
				}
			}
		}
	}
	// Out of bounds.
	if loc.Find(-1, 0, 0) != -1 || loc.Find(0, 32, 0) != -1 {
		t.Error("out-of-bounds must return -1")
	}
}

// locatorTree is the 128³ tree with a 32³ full-resolution sub-domain that
// BenchmarkLocatorVsScan and TestFindZeroAllocs both query.
func locatorTree(tb testing.TB) *Tree {
	sub := grid.CubeAt(grid.Point{32, 32, 32}, 32)
	rate := func(bx grid.Box) int {
		switch {
		case sub.ContainsBox(bx):
			return 1
		case sub.Overlaps(bx):
			return 0
		case chebyshevDistBox(sub, bx) <= 16:
			return 2
		default:
			return 8
		}
	}
	tr, err := Build(grid.Cube(128), rate)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func BenchmarkLocatorVsScan(b *testing.B) {
	tr := locatorTree(b)
	loc := NewLocator(tr)
	b.Run("locator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loc.Find(i%128, (i*7)%128, (i*13)%128)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.FindCell(i%128, (i*7)%128, (i*13)%128)
		}
	})
}

// TestFindZeroAllocs pins both point-location paths at zero allocations
// per query, and checks they name the same cell.
func TestFindZeroAllocs(t *testing.T) {
	tr := locatorTree(t)
	loc := NewLocator(tr)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i++
		x, y, z := i%128, (i*7)%128, (i*13)%128
		if loc.Find(x, y, z) != tr.FindCell(x, y, z) {
			t.Errorf("Find and FindCell disagree at (%d,%d,%d)", x, y, z)
		}
	}); n != 0 {
		t.Fatalf("Locator.Find + Tree.FindCell: %v allocs per query, want 0", n)
	}
}

// TestMovedMatchesTranslate: Moved recognizes the metadata of the tree
// translated on the torus, sharing its index, and nothing else — not a
// changed rate or cumulative count, not one cell moved alone, not a move
// that would wrap a cell, not a different cell count.
func TestMovedMatchesTranslate(t *testing.T) {
	tr := locatorTree(t)
	n := tr.Dim.Nx
	for _, s := range []grid.Point{{}, {n / 2, 0, n / 2}, {0, n / 2, 0}} {
		got := tr.Moved(tr.Translate(s).EncodeMeta())
		if got == nil || got.Index() != tr.Index() {
			t.Fatalf("shift %v: Moved gave %v", s, got)
		}
		for i, c := range tr.Translate(s).Cells {
			if got.Cells[i] != c {
				t.Fatalf("shift %v: cell %d is %v, want %v", s, i, got.Cells[i], c)
			}
		}
	}
	meta := tr.EncodeMeta()
	for name, edit := range map[string]func(m []int32) []int32{
		"rate":       func(m []int32) []int32 { m[3] *= 2; return m },
		"cum":        func(m []int32) []int32 { m[IntsPerCell+4]++; return m },
		"one cell":   func(m []int32) []int32 { m[IntsPerCell] = (m[IntsPerCell] + 1) % int32(n); return m },
		"wrap":       func(m []int32) []int32 { return tr.Translate(grid.Point{1, 0, 0}).EncodeMeta() },
		"cell count": func(m []int32) []int32 { return m[:len(m)-IntsPerCell] },
	} {
		if got := tr.Moved(edit(append([]int32(nil), meta...))); got != nil {
			t.Errorf("%s: Moved accepted it", name)
		}
	}
}
