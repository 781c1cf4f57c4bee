package sample

import (
	"fmt"
	"math"

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
	return AddPatches(dst, origin, grid.BoxAt(origin, dst.Dim.Nx, dst.Dim.Ny, dst.Dim.Nz), []Patch{p}, scale)
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
	// A component is at least its blob length and a patch count.
	nc, ok := headerInt(msg[0], 0, (len(msg)-1)/2)
	if !ok {
		return nil, fmt.Errorf("sample: component count %g in a %d-value message", msg[0], len(msg))
	}
	pos := 1
	out := make([][]Patch, nc)
	for c := 0; c < nc; c++ {
		if pos >= len(msg) {
			return nil, fmt.Errorf("sample: truncated component %d", c)
		}
		bl, ok := headerInt(msg[pos], 0, len(msg)-pos-1)
		if !ok {
			return nil, fmt.Errorf("sample: bad component %d blob length %g", c, msg[pos])
		}
		pos++
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
	ps, _, err := decodePatches(msg)
	return ps, err
}

// DecodePatchGroups splits msg, EncodePatches messages laid back to back,
// into one patch list per message. Sample slices alias msg.
func DecodePatchGroups(msg []float64) ([][]Patch, error) {
	var groups [][]Patch
	for len(msg) > 0 {
		ps, used, err := decodePatches(msg)
		if err != nil {
			return nil, fmt.Errorf("sample: patch group %d: %w", len(groups), err)
		}
		groups = append(groups, ps)
		msg = msg[used:]
	}
	return groups, nil
}

// decodePatches decodes the EncodePatches message at the front of msg and
// returns its patches and the number of values it spans. The header is
// untrusted: nothing is sized before it is checked against the values msg
// holds, and a cell must be one a valid octree could hold.
func decodePatches(msg []float64) ([]Patch, int, error) {
	if len(msg) < 1 {
		return nil, 0, fmt.Errorf("sample: empty patch message")
	}
	count, ok := headerInt(msg[0], 0, (len(msg)-1)/patchHeader)
	if !ok {
		return nil, 0, fmt.Errorf("sample: patch count %g in a %d-value message", msg[0], len(msg))
	}
	pos := 1
	out := make([]Patch, 0, count)
	for i := 0; i < count; i++ {
		if pos+patchHeader > len(msg) {
			return nil, 0, fmt.Errorf("sample: truncated patch header at %d", pos)
		}
		h := msg[pos : pos+patchHeader]
		pos += patchHeader
		var v [patchHeader - 1]int // lo.x, lo.y, lo.z, size, rate
		valid := true
		for j := range v {
			least := 0
			if j >= 3 {
				least = 1
			}
			v[j], ok = headerInt(h[j], least, octree.MaxGridSize)
			valid = valid && ok
		}
		size, rate := v[3], v[4]
		ns, ok := headerInt(h[5], 0, len(msg)-pos)
		// size ≤ MaxGridSize keeps the lattice cube below 2⁶¹: no overflow.
		if !valid || !ok || rate&(rate-1) != 0 || size%rate != 0 {
			return nil, 0, fmt.Errorf("sample: malformed patch %d header %v", i, h)
		}
		cell := octree.Cell{Box: grid.CubeAt(grid.Point{v[0], v[1], v[2]}, size), Rate: rate}
		if !cell.OnLattice() {
			return nil, 0, fmt.Errorf("sample: patch %d: %w", i, &octree.OffLatticeError{Cell: cell})
		}
		if cell.SampleCount() != ns {
			return nil, 0, fmt.Errorf("sample: patch %d sample count %d != cell %d", i, ns, cell.SampleCount())
		}
		out = append(out, Patch{Cell: cell, Samples: msg[pos : pos+ns]})
		pos += ns
	}
	return out, pos, nil
}

// headerInt reads a header value as an integer in [lo, hi]; NaN, fractions
// and out-of-range values fail before any conversion.
func headerInt(v float64, lo, hi int) (int, bool) {
	if !(v >= float64(lo) && v <= float64(hi)) || v != math.Trunc(v) {
		return 0, false
	}
	return int(v), true
}
