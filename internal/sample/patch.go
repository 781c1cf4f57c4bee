package sample

import (
	"fmt"
	"math"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// PatchGroup is one sub-domain's share of an exchange message: the index
// of the box that produced it and one patch list per component.
type PatchGroup struct {
	Box   int
	Comps [][]Patch
}

// patchHeader is the per-patch wire prefix: lo.x, lo.y, lo.z, size, rate,
// sampleCount — mirroring the paper's five-integer octree metadata plus an
// explicit count for framing.
const patchHeader = 6

// EncodePatchGroups frames groups as one flat float64 message for the
// simulated fabric (real MPI would use bytes; the footprint accounting is
// identical at 8 bytes per value). Each group is its box index, then per
// component a patch count and the patches, each a patchHeader prefix and
// its cell's closed lattice in slot order — read through the patch's view
// where it has one, so a patch on a result's storage sends the values the
// result holds when it is encoded.
func EncodePatchGroups(gs []PatchGroup) []float64 {
	n := 0
	for _, g := range gs {
		n += 1 + len(g.Comps)
		for _, ps := range g.Comps {
			for _, p := range ps {
				n += patchHeader + p.Cell.SlotCount()
			}
		}
	}
	out := make([]float64, 0, n)
	for _, g := range gs {
		out = append(out, float64(g.Box))
		for _, ps := range g.Comps {
			out = append(out, float64(len(ps)))
			for _, p := range ps {
				out = append(out,
					float64(p.Cell.Box.Lo[0]), float64(p.Cell.Box.Lo[1]), float64(p.Cell.Box.Lo[2]),
					float64(p.Cell.Box.Hi[0]-p.Cell.Box.Lo[0]), float64(p.Cell.Rate),
					float64(p.Cell.SlotCount()))
				if p.View == nil {
					out = append(out, p.Samples...)
					continue
				}
				for _, j := range p.View {
					out = append(out, p.Samples[j])
				}
			}
		}
	}
	return out
}

// DecodePatchGroups inverts EncodePatchGroups for groups of comps
// components each. Sample slices alias msg.
func DecodePatchGroups(msg []float64, comps int) ([]PatchGroup, error) {
	var gs []PatchGroup
	for len(msg) > 0 {
		box, ok := headerInt(msg[0], 0, math.MaxInt32)
		if !ok {
			return nil, fmt.Errorf("sample: patch group %d: box index %g", len(gs), msg[0])
		}
		pos := 1
		g := PatchGroup{Box: box, Comps: make([][]Patch, comps)}
		for c := range g.Comps {
			ps, used, err := decodePatches(msg[pos:])
			if err != nil {
				return nil, fmt.Errorf("sample: patch group %d component %d: %w", len(gs), c, err)
			}
			g.Comps[c] = ps
			pos += used
		}
		gs = append(gs, g)
		msg = msg[pos:]
	}
	return gs, nil
}

// decodePatches decodes the patch list at the front of msg — a count,
// then the patches — and returns its patches and the number of values it
// spans. The header is untrusted: nothing is sized before it is checked
// against the values msg holds, and a cell must be one a valid octree
// could hold.
func decodePatches(msg []float64) ([]Patch, int, error) {
	if len(msg) < 1 {
		return nil, 0, fmt.Errorf("sample: truncated patch list")
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
		if cell.SlotCount() != ns {
			return nil, 0, fmt.Errorf("sample: patch %d sample count %d != cell %d", i, ns, cell.SlotCount())
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
