package sample

import (
	"fmt"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// Patches returns the patches of c whose cells intersect region — the
// sparse payload a worker sends to the peer owning that region. Sample
// slices alias the compressed storage; encode before mutating.
func (c *Compressed) Patches(region grid.Box) []Patch {
	offsets := c.Tree.CellOffsets()
	var out []Patch
	for ci, cell := range c.Tree.Cells {
		if !cell.Box.Overlaps(region) {
			continue
		}
		out = append(out, Patch{
			Cell:    cell,
			Samples: c.Samples[offsets[ci] : offsets[ci]+cell.SampleCount()],
		})
	}
	return out
}

// AddToSubField accumulates scale × the patch's reconstruction into a
// local sub-field: dst covers the grid region [origin, origin+dst.Dim).
// This is what a distributed worker holding only its own sub-domains uses
// to apply a received patch without materializing the global grid.
func (p Patch) AddToSubField(dst *grid.Field, origin grid.Point, scale float64) error {
	sc := scratchPool.Get().(*lerpScratch)
	defer scratchPool.Put(sc)
	return p.addRegion(dst, origin, grid.BoxAt(origin, dst.Dim.Nx, dst.Dim.Ny, dst.Dim.Nz), scale, sc)
}

// patchHeader is the per-patch wire prefix: lo.x, lo.y, lo.z, size, rate,
// sampleCount — mirroring the paper's five-integer octree metadata plus an
// explicit count for framing.
const patchHeader = 6

// EncodePatches serializes patches to a flat float64 message for the
// simulated fabric (real MPI would use bytes; the footprint accounting is
// identical at 8 bytes per value).
func EncodePatches(ps []Patch) []float64 {
	n := 1
	for _, p := range ps {
		n += patchHeader + len(p.Samples)
	}
	out := make([]float64, 0, n)
	out = append(out, float64(len(ps)))
	for _, p := range ps {
		out = append(out,
			float64(p.Cell.Box.Lo[0]), float64(p.Cell.Box.Lo[1]), float64(p.Cell.Box.Lo[2]),
			float64(p.Cell.Box.Hi[0]-p.Cell.Box.Lo[0]), float64(p.Cell.Rate),
			float64(len(p.Samples)))
		out = append(out, p.Samples...)
	}
	return out
}

// EncodeComponentPatches frames one patch list per tensor component into a
// single message — the per-iteration exchange unit of the distributed
// MASSIF solver (six Voigt components per sub-domain result).
func EncodeComponentPatches(comps [][]Patch) []float64 {
	out := []float64{float64(len(comps))}
	for _, ps := range comps {
		blob := EncodePatches(ps)
		out = append(out, float64(len(blob)))
		out = append(out, blob...)
	}
	return out
}

// DecodeComponentPatches inverts EncodeComponentPatches.
func DecodeComponentPatches(msg []float64) ([][]Patch, error) {
	if len(msg) < 1 {
		return nil, fmt.Errorf("sample: empty component-patch message")
	}
	nc := int(msg[0])
	if nc < 0 {
		return nil, fmt.Errorf("sample: negative component count %d", nc)
	}
	pos := 1
	out := make([][]Patch, nc)
	for c := 0; c < nc; c++ {
		if pos >= len(msg) {
			return nil, fmt.Errorf("sample: truncated component %d", c)
		}
		bl := int(msg[pos])
		pos++
		if bl < 0 || pos+bl > len(msg) {
			return nil, fmt.Errorf("sample: bad component %d blob length %d", c, bl)
		}
		ps, err := DecodePatches(msg[pos : pos+bl])
		if err != nil {
			return nil, fmt.Errorf("sample: component %d: %w", c, err)
		}
		out[c] = ps
		pos += bl
	}
	return out, nil
}

// DecodePatches inverts EncodePatches. Sample slices alias the message
// buffer.
func DecodePatches(msg []float64) ([]Patch, error) {
	if len(msg) < 1 {
		return nil, fmt.Errorf("sample: empty patch message")
	}
	count := int(msg[0])
	if count < 0 {
		return nil, fmt.Errorf("sample: negative patch count %d", count)
	}
	pos := 1
	out := make([]Patch, 0, count)
	for i := 0; i < count; i++ {
		if pos+patchHeader > len(msg) {
			return nil, fmt.Errorf("sample: truncated patch header at %d", pos)
		}
		lo := grid.Point{int(msg[pos]), int(msg[pos+1]), int(msg[pos+2])}
		size := int(msg[pos+3])
		rate := int(msg[pos+4])
		ns := int(msg[pos+5])
		pos += patchHeader
		if size < 1 || rate < 1 || ns < 0 || pos+ns > len(msg) {
			return nil, fmt.Errorf("sample: malformed patch %d (size=%d rate=%d ns=%d)", i, size, rate, ns)
		}
		cell := octree.Cell{Box: grid.CubeAt(lo, size), Rate: rate}
		if cell.SampleCount() != ns {
			return nil, fmt.Errorf("sample: patch %d sample count %d != cell %d", i, ns, cell.SampleCount())
		}
		out = append(out, Patch{Cell: cell, Samples: msg[pos : pos+ns]})
		pos += ns
	}
	return out, nil
}
