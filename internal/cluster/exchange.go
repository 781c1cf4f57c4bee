package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// Exchange is the single sparse exchange of the paper's method (§3.1 step
// 4, Algorithm 2 line 6) on P ranks, owner-computes: box j of
// grid.Decompose belongs to rank j mod P — an all-zero box a caller skips
// too, for its output region — every rank convolves its own boxes, sends
// each peer the patches of its results that overlap the peer's boxes, one
// group per box, and adds what it receives into its own boxes in box-index
// order. LowCommConvolve (one component) and the MASSIF solve (six) run it.
type Exchange struct {
	Boxes []grid.Box // grid.Decompose order
	p     int
	comps int
	k     int
	nb    [3]int // boxes per axis: the k-lattice
}

// NewExchange lays out the exchange of C = comps component results of the
// k³ boxes of d on p ranks.
func NewExchange(d grid.Dim3, k, p, comps int) (*Exchange, error) {
	if p < 1 {
		return nil, fmt.Errorf("cluster: worker count %d must be positive", p)
	}
	boxes, err := grid.Decompose(d, k)
	if err != nil {
		return nil, err
	}
	return &Exchange{Boxes: boxes, p: p, comps: comps, k: k, nb: [3]int{d.Nx / k, d.Ny / k, d.Nz / k}}, nil
}

// Owned returns the indices of rank q's boxes, ascending.
func (x *Exchange) Owned(q int) []int {
	var js []int
	for j := q; j < len(x.Boxes); j += x.p {
		js = append(js, j)
	}
	return js
}

// forBoxes calls f with the index of every box that c overlaps, found on
// the k-lattice instead of by testing every box.
func (x *Exchange) forBoxes(c grid.Box, f func(j int)) {
	var lo, hi [3]int
	for a := range lo {
		lo[a], hi[a] = max(c.Lo[a], 0)/x.k, min((c.Hi[a]-1)/x.k, x.nb[a]-1)
	}
	for bz := lo[2]; bz <= hi[2]; bz++ {
		for by := lo[1]; by <= hi[1]; by++ {
			for bx := lo[0]; bx <= hi[0]; bx++ {
				f(bx + x.nb[0]*(by+x.nb[1]*bz))
			}
		}
	}
}

// Sends builds one rank's send lists: per destination rank, one group per
// box src[i], in src order, each component of its results outs[i] listing,
// in cell order, the patches that overlap a box the destination owns.
// Patches are on the results' storage (sample.Compressed.CellPatch), so a
// rank builds its lists once and every run that refills outs in place
// sends the new values.
func (x *Exchange) Sends(src []int, outs [][]*sample.Compressed) [][]sample.PatchGroup {
	send := make([][]sample.PatchGroup, x.p)
	to := make([]bool, x.p)
	for i, j := range src {
		for q := range send {
			send[q] = append(send[q], sample.PatchGroup{Box: j, Comps: make([][]sample.Patch, x.comps)})
		}
		for c, out := range outs[i] {
			for ci, cell := range out.Tree.Cells {
				pt := out.CellPatch(ci)
				clear(to)
				x.forBoxes(cell.Box, func(b int) { to[b%x.p] = true })
				for q, ok := range to {
					if ok {
						g := &send[q][i]
						g.Comps[c] = append(g.Comps[c], pt)
					}
				}
			}
		}
	}
	return send
}

// Encode frames send lists as one message per destination rank, every
// patch its cell's lattice as the results hold it.
func (x *Exchange) Encode(send [][]sample.PatchGroup) [][]float64 {
	msgs := make([][]float64, len(send))
	for q, gs := range send {
		msgs[q] = sample.EncodePatchGroups(gs)
	}
	return msgs
}

// Decode inverts Encode for every message received, sender q's at index
// q; a nil message stays nil. A sender's groups must name boxes it owns,
// ascending.
func (x *Exchange) Decode(recv [][]float64) ([][]sample.PatchGroup, error) {
	in := make([][]sample.PatchGroup, len(recv))
	for q, msg := range recv {
		gs, err := sample.DecodePatchGroups(msg, x.comps)
		if err != nil {
			return nil, fmt.Errorf("cluster: exchange from rank %d: %w", q, err)
		}
		last := -1
		for _, g := range gs {
			if g.Box >= len(x.Boxes) || g.Box%x.p != q || g.Box <= last {
				return nil, fmt.Errorf("cluster: rank %d sent a group for box %d after box %d", q, g.Box, last)
			}
			last = g.Box
		}
		in[q] = gs
	}
	return in, nil
}

// Accumulate adds the groups rank q received, in[s] from sender s, into
// each of its boxes: per component c, box j's field dst(j, c) — whose
// element (0, 0, 0) is grid point origin — gets the received patches that
// overlap box j, summed by sample.AddPatches in box-index order, then cell
// order. That is the order conv.Accumulate adds whole results in, and a
// voxel's value depends on that order alone, so the sum is
// conv.Decomposed.Run's bit for bit at every P.
func (x *Exchange) Accumulate(q int, in [][]sample.PatchGroup, dst func(j, c int) (f *grid.Field, origin grid.Point)) error {
	var groups []sample.PatchGroup
	for _, gs := range in {
		groups = append(groups, gs...)
	}
	slices.SortFunc(groups, func(a, b sample.PatchGroup) int { return cmp.Compare(a.Box, b.Box) })
	owned := x.Owned(q)
	mine := make([][]sample.Patch, len(owned))
	for c := range x.comps {
		for i := range mine {
			mine[i] = mine[i][:0]
		}
		for _, g := range groups {
			for _, pt := range g.Comps[c] {
				x.forBoxes(pt.Cell.Box, func(j int) {
					if j%x.p == q {
						mine[j/x.p] = append(mine[j/x.p], pt)
					}
				})
			}
		}
		for i, j := range owned {
			f, origin := dst(j, c)
			if err := sample.AddPatches(f, origin, x.Boxes[j], mine[i], 1); err != nil {
				return err
			}
		}
	}
	return nil
}
