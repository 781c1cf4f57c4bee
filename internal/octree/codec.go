package octree

import (
	"fmt"

	"lowcomm3d/internal/grid"
)

// IntsPerCell is the paper's metadata layout: "five consecutive integers
// capturing the details of one octree cell" — corner x, y, z, the
// downsampling rate, and the cumulative count of preceding cells' samples,
// counted as lattice slots (Index): m³ per cell, shared points included.
const IntsPerCell = 5

// EncodeMeta serializes the tree's metadata to the paper's flat 5-int
// layout. Cell sizes are not stored: because cells are cubic and the
// lattice has (size/rate + 1)³ slots, the size is recovered from
// consecutive cumulative counts during decode.
func (t *Tree) EncodeMeta() []int32 {
	meta := make([]int32, 0, IntsPerCell*len(t.Cells))
	cum := 0
	for _, c := range t.Cells {
		meta = append(meta,
			int32(c.Box.Lo[0]), int32(c.Box.Lo[1]), int32(c.Box.Lo[2]),
			int32(c.Rate), int32(cum))
		cum += c.SlotCount()
	}
	return meta
}

// MetadataBytes returns the size of the encoded metadata in bytes
// (4 bytes per integer, as the paper notes the footprint "can be
// compressed further using lower precision (since we store only
// integers)").
func (t *Tree) MetadataBytes() int { return 4 * IntsPerCell * len(t.Cells) }

// DecodeMeta reconstructs a Tree over an n³ grid from the flat metadata
// plus the total slot count, SlotCount (needed to size the final cell). It
// inverts EncodeMeta.
func DecodeMeta(n int, meta []int32, totalSlots int) (*Tree, error) {
	if len(meta)%IntsPerCell != 0 {
		return nil, fmt.Errorf("octree: metadata length %d not a multiple of %d", len(meta), IntsPerCell)
	}
	// Bound the total before any per-cell arithmetic: icbrt on a count near
	// int64 max overflows its cube and the bound keeps hostile (fuzzed)
	// metadata from near-unbounded loops. 2⁴⁵ slots is 256 TiB of float64
	// payload — far beyond any stream this decoder will legitimately see.
	if totalSlots < 0 || totalSlots > 1<<45 {
		return nil, fmt.Errorf("octree: implausible total slot count %d", totalSlots)
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
			next = totalSlots
		}
		count := next - cum
		if count <= 0 {
			return nil, fmt.Errorf("octree: cell %d has non-positive slot count %d", i, count)
		}
		// count = (size/rate + 1)³ → size = rate·(∛count − 1).
		lat := icbrt(count)
		if lat*lat*lat != count || lat < 2 {
			return nil, fmt.Errorf("octree: cell %d slot count %d is not a valid lattice cube", i, count)
		}
		size := rate * (lat - 1)
		t.Cells[i] = Cell{Box: grid.CubeAt(grid.Point{int(m[0]), int(m[1]), int(m[2])}, size), Rate: rate}
	}
	// The per-cell counts are cumulative differences, so they only sum to
	// totalSlots if the first cell's cumulative count is 0 and at least
	// one cell exists; a forged header can violate either.
	if got := t.SlotCount(); got != totalSlots {
		return nil, fmt.Errorf("octree: metadata accounts for %d slots, header says %d", got, totalSlots)
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

// Moved returns t moved on the torus to the cells meta encodes, sharing
// t's index, when meta is exactly the metadata of such a move with no
// moved cell wrapping, and nil otherwise. A tree it returns is valid
// because t is: it checks O(cells) integers where DecodeMeta and Validate
// would rebuild and recheck the tree.
func (t *Tree) Moved(meta []int32) *Tree {
	if len(t.Cells) == 0 || len(meta) != IntsPerCell*len(t.Cells) {
		return nil
	}
	n := t.Dim.Nx
	var s grid.Point
	for a := range s {
		s[a] = ((int(meta[a])-t.Cells[0].Box.Lo[a])%n + n) % n
	}
	cum := 0
	for i, c := range t.Cells {
		m := meta[i*IntsPerCell:][:IntsPerCell]
		if int(m[3]) != c.Rate || int(m[4]) != cum {
			return nil
		}
		size := c.Box.Hi[0] - c.Box.Lo[0]
		for a := range s {
			lo := (c.Box.Lo[a] + s[a]) % n
			if int(m[a]) != lo || lo+size > n || lo%c.Rate != 0 {
				return nil
			}
		}
		cum += c.SlotCount()
	}
	return t.Translate(s)
}
