package octree

import (
	"fmt"

	"lowcomm3d/internal/grid"
)

// IntsPerCell is the paper's metadata layout: "five consecutive integers
// capturing the details of one octree cell" — corner x, y, z, the
// downsampling rate, and the cumulative sample count of preceding cells.
const IntsPerCell = 5

// EncodeMeta serializes the tree's metadata to the paper's flat 5-int
// layout. Cell sizes are not stored: because cells are cubic and the
// sample lattice has (size/rate + 1)³ points, the size is recovered from
// consecutive cumulative counts during decode.
func (t *Tree) EncodeMeta() []int32 {
	meta := make([]int32, 0, IntsPerCell*len(t.Cells))
	cum := 0
	for _, c := range t.Cells {
		meta = append(meta,
			int32(c.Box.Lo[0]), int32(c.Box.Lo[1]), int32(c.Box.Lo[2]),
			int32(c.Rate), int32(cum))
		cum += c.SampleCount()
	}
	return meta
}

// MetadataBytes returns the size of the encoded metadata in bytes
// (4 bytes per integer, as the paper notes the footprint "can be
// compressed further using lower precision (since we store only
// integers)").
func (t *Tree) MetadataBytes() int { return 4 * IntsPerCell * len(t.Cells) }

// DecodeMeta reconstructs a Tree over an n³ grid from the flat metadata
// plus the total sample count (needed to size the final cell). It inverts
// EncodeMeta.
func DecodeMeta(n int, meta []int32, totalSamples int) (*Tree, error) {
	if len(meta)%IntsPerCell != 0 {
		return nil, fmt.Errorf("octree: metadata length %d not a multiple of %d", len(meta), IntsPerCell)
	}
	// Bound the total before any per-cell arithmetic: icbrt on a count near
	// int64 max overflows its cube and the bound keeps hostile (fuzzed)
	// metadata from near-unbounded loops. 2⁴⁵ samples is 256 TiB of float64
	// payload — far beyond any stream this decoder will legitimately see.
	if totalSamples < 0 || totalSamples > 1<<45 {
		return nil, fmt.Errorf("octree: implausible total sample count %d", totalSamples)
	}
	nc := len(meta) / IntsPerCell
	// One allocation: nc is bounded by the metadata the caller already holds.
	t := &Tree{Dim: grid.Cube(n), Cells: make([]Cell, nc)}
	for i := range t.Cells {
		m := meta[i*IntsPerCell : (i+1)*IntsPerCell]
		rate := int(m[3])
		if rate < 1 {
			return nil, fmt.Errorf("octree: cell %d has invalid rate %d", i, rate)
		}
		cum := int(m[4])
		var next int
		if i+1 < nc {
			next = int(meta[(i+1)*IntsPerCell+4])
		} else {
			next = totalSamples
		}
		count := next - cum
		if count <= 0 {
			return nil, fmt.Errorf("octree: cell %d has non-positive sample count %d", i, count)
		}
		// count = (size/rate + 1)³ → size = rate·(∛count − 1).
		lat := icbrt(count)
		if lat*lat*lat != count || lat < 2 {
			return nil, fmt.Errorf("octree: cell %d sample count %d is not a valid lattice cube", i, count)
		}
		size := rate * (lat - 1)
		t.Cells[i] = Cell{Box: grid.CubeAt(grid.Point{int(m[0]), int(m[1]), int(m[2])}, size), Rate: rate}
	}
	// The per-cell counts are cumulative differences, so they only sum to
	// totalSamples if the first cell's cumulative count is 0 and at least
	// one cell exists; a forged header can violate either.
	if got := t.SampleCount(); got != totalSamples {
		return nil, fmt.Errorf("octree: metadata accounts for %d samples, header says %d", got, totalSamples)
	}
	return t, nil
}

// icbrt returns the integer cube root of n (largest r with r³ ≤ n).
func icbrt(n int) int {
	r := 0
	for (r+1)*(r+1)*(r+1) <= n {
		r++
	}
	return r
}
