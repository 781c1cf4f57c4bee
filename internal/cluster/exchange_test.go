package cluster

import (
	"testing"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// TestExchangeOwnedRoundRobin: every box has exactly one owner, rank
// j mod P, and the ranks' loads differ by at most one.
func TestExchangeOwnedRoundRobin(t *testing.T) {
	x, err := NewExchange(grid.Cube(8), 2, 5, 1) // 64 boxes
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, len(x.Boxes))
	for j := range owner {
		owner[j] = -1
	}
	for q := range 5 {
		js := x.Owned(q)
		if len(js) < len(x.Boxes)/5 || len(js) > len(x.Boxes)/5+1 {
			t.Errorf("rank %d owns %d boxes", q, len(js))
		}
		for _, j := range js {
			if owner[j] != -1 || j%5 != q {
				t.Errorf("box %d owned by rank %d, and by %d before", j, q, owner[j])
			}
			owner[j] = q
		}
	}
	for j, q := range owner {
		if q == -1 {
			t.Errorf("box %d has no owner", j)
		}
	}
}

func TestExchangeErrors(t *testing.T) {
	if _, err := NewExchange(grid.Cube(16), 8, 0, 1); err == nil {
		t.Error("zero workers should fail")
	}
	if _, err := NewExchange(grid.Cube(16), 6, 2, 1); err == nil {
		t.Error("a grid k does not divide should fail")
	}
	x, err := NewExchange(grid.Cube(16), 8, 2, 1) // rank 0 owns the even boxes
	if err != nil {
		t.Fatal(err)
	}
	group := func(boxes ...int) []float64 {
		var gs []sample.PatchGroup
		for _, j := range boxes {
			gs = append(gs, sample.PatchGroup{Box: j, Comps: [][]sample.Patch{nil}})
		}
		return sample.EncodePatchGroups(gs)
	}
	if _, err := x.Decode([][]float64{group(0, 2, 6), group(1, 7)}); err != nil {
		t.Errorf("owned ascending groups: %v", err)
	}
	for name, recv := range map[string][][]float64{
		"a box the sender does not own": {group(1), nil},
		"boxes out of order":            {group(2, 0), nil},
		"one box twice":                 {group(2, 2), nil},
		"a box past the decomposition":  {nil, group(9)},
		"a malformed message":           {{0, 3}, nil},
	} {
		if _, err := x.Decode(recv); err == nil {
			t.Errorf("%s: Decode accepted it", name)
		}
	}
}

// TestExchangeSendsOverlaps: the lattice lookup sends each peer exactly
// the cells that overlap one of its boxes, found here by testing every
// box, once, in cell order.
func TestExchangeSendsOverlaps(t *testing.T) {
	d := grid.Cube(32)
	for _, p := range []int{1, 3, 4} {
		x, err := NewExchange(d, 8, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		src := []int{0, 21, 63}
		outs := make([][]*sample.Compressed, len(src))
		for i, j := range src {
			tree, err := sample.DefaultPolicy(x.Boxes[j], 8).Tree(d)
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = []*sample.Compressed{sample.NewCompressed(tree), sample.NewCompressed(tree)}
		}
		send := x.Sends(src, outs)
		for q := range p {
			var want []sample.PatchGroup
			for i, j := range src {
				g := sample.PatchGroup{Box: j, Comps: make([][]sample.Patch, 2)}
				for c, out := range outs[i] {
					off := 0
					for _, cell := range out.Tree.Cells {
						for _, b := range x.Owned(q) {
							if cell.Box.Overlaps(x.Boxes[b]) {
								g.Comps[c] = append(g.Comps[c], sample.Patch{Cell: cell, Samples: out.Samples[off : off+cell.SampleCount()]})
								break
							}
						}
						off += cell.SampleCount()
					}
				}
				want = append(want, g)
			}
			if len(send[q]) != len(want) {
				t.Fatalf("P=%d: rank %d gets %d groups, want %d", p, q, len(send[q]), len(want))
			}
			for k, g := range want {
				got := send[q][k]
				if got.Box != g.Box {
					t.Fatalf("P=%d: rank %d group %d is box %d, want %d", p, q, k, got.Box, g.Box)
				}
				for c := range g.Comps {
					if len(got.Comps[c]) != len(g.Comps[c]) {
						t.Fatalf("P=%d: rank %d box %d component %d: %d patches, want %d", p, q, g.Box, c, len(got.Comps[c]), len(g.Comps[c]))
					}
					for i, pt := range g.Comps[c] {
						if got.Comps[c][i].Cell != pt.Cell || &got.Comps[c][i].Samples[0] != &pt.Samples[0] {
							t.Fatalf("P=%d: rank %d box %d component %d patch %d is not cell %v aliasing its result", p, q, g.Box, c, i, pt.Cell)
						}
					}
				}
			}
		}
	}
}
