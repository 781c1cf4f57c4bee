package octree

import (
	"encoding/binary"
	"testing"

	"lowcomm3d/internal/grid"
)

// metaFromBytes reassembles fuzzed bytes into the flat int32 metadata
// layout, truncated to whole 5-int cells.
func metaFromBytes(data []byte) []int32 {
	ints := len(data) / 4
	ints -= ints % IntsPerCell
	meta := make([]int32, ints)
	for i := range meta {
		meta[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return meta
}

// FuzzOctreeMetaCodec feeds DecodeMeta arbitrary metadata: corrupt input
// must be rejected with an error — never a panic, never an unbounded loop
// — and anything it accepts must survive the EncodeMeta → DecodeMeta
// round-trip unchanged.
func FuzzOctreeMetaCodec(f *testing.F) {
	// A genuine encoding as the structured seed: rate 1 inside the first
	// octant, rate 4 elsewhere.
	near := grid.BoxAt(grid.Point{0, 0, 0}, 8, 8, 8)
	if tree, err := Build(grid.Cube(16), func(b grid.Box) int {
		if b.Hi[0]-b.Lo[0] > 8 {
			return 0 // subdivide
		}
		if near.ContainsBox(b) {
			return 1
		}
		return 4
	}); err == nil {
		meta := tree.EncodeMeta()
		raw := make([]byte, 4*len(meta))
		for i, m := range meta {
			binary.LittleEndian.PutUint32(raw[4*i:], uint32(m))
		}
		f.Add(16, tree.SlotCount(), raw)
	}
	f.Add(8, 27, []byte{
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // corner (0,0,0)
		1, 0, 0, 0, // rate 1
		0, 0, 0, 0, // cum 0
	}) // one 2³-lattice cell: 27 = 3³ slots → size 2
	f.Add(8, 0, []byte{})
	f.Add(4, -5, []byte{1, 2, 3, 4})
	f.Add(1<<20, 1<<30, make([]byte, 40))

	f.Fuzz(func(t *testing.T, n int, totalSlots int, data []byte) {
		meta := metaFromBytes(data)
		tree, err := DecodeMeta(n, meta, totalSlots)
		if err != nil {
			return // rejected cleanly — the required behavior for garbage
		}
		// Whatever decodes must be internally consistent enough to
		// re-encode and decode to the same structure.
		if tree.SlotCount() != totalSlots {
			t.Fatalf("decoded tree has %d slots, header said %d", tree.SlotCount(), totalSlots)
		}
		meta2 := tree.EncodeMeta()
		tree2, err := DecodeMeta(n, meta2, totalSlots)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if len(tree2.Cells) != len(tree.Cells) {
			t.Fatalf("round-trip cell count %d != %d", len(tree2.Cells), len(tree.Cells))
		}
		for i := range tree.Cells {
			if tree.Cells[i] != tree2.Cells[i] {
				t.Fatalf("cell %d round-trip mismatch: %+v != %+v", i, tree.Cells[i], tree2.Cells[i])
			}
		}
		// Validate must not panic on decoded (possibly out-of-grid) trees.
		_ = tree.Validate()
	})
}
