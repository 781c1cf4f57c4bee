package octree

import (
	"errors"
	"testing"

	"lowcomm3d/internal/grid"
)

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
	// Each 4³ cell at rate 2 has (4/2+1)³ = 27 samples.
	if got := tr.SampleCount(); got != 64*27 {
		t.Fatalf("samples = %d want %d", got, 64*27)
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
	// 8³ at rate 1: 9³ samples (endpoint wraps periodically).
	if got := tr.SampleCount(); got != 729 {
		t.Fatalf("samples = %d want 729", got)
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
	total := tr.SampleCount()
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
// layout of every Compressed.Samples and of conv's gather index — against
// the walk ForEachSample replaced: three modulo wraps per sample.
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

func TestCellOffsets(t *testing.T) {
	tr, err := Build(grid.Cube(16), uniformRate(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	off := tr.CellOffsets()
	if off[0] != 0 {
		t.Fatalf("first offset = %d", off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] != off[i-1]+tr.Cells[i-1].SampleCount() {
			t.Fatalf("offset %d inconsistent", i)
		}
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
		case sub.ChebyshevDistBox(b) <= 4:
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
	back, err := DecodeMeta(32, meta, tr.SampleCount())
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
		case sub.ChebyshevDistBox(b) <= 16:
			return 2
		case sub.ChebyshevDistBox(b) <= 128:
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
		if !off.Contains(x, y, z) {
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
		case sub.ChebyshevDistBox(b) <= 4:
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
		case sub.ChebyshevDistBox(bx) <= 16:
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
