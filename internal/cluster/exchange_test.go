package cluster

import (
	"slices"
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
// box, once, in cell order, each a patch on its result's storage.
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
			if len(send[q]) != len(src) {
				t.Fatalf("P=%d: rank %d gets %d groups, want %d", p, q, len(send[q]), len(src))
			}
			for i, j := range src {
				got := send[q][i]
				if got.Box != j {
					t.Fatalf("P=%d: rank %d group %d is box %d, want %d", p, q, i, got.Box, j)
				}
				for c, out := range outs[i] {
					var want []sample.Patch
					for ci, cell := range out.Tree.Cells {
						for _, b := range x.Owned(q) {
							if cell.Box.Overlaps(x.Boxes[b]) {
								want = append(want, out.CellPatch(ci))
								break
							}
						}
					}
					if len(got.Comps[c]) != len(want) {
						t.Fatalf("P=%d: rank %d box %d component %d: %d patches, want %d", p, q, j, c, len(got.Comps[c]), len(want))
					}
					for k, pt := range want {
						g := got.Comps[c][k]
						if g.Cell != pt.Cell || &g.Samples[0] != &out.Samples[0] || &g.View[0] != &pt.View[0] {
							t.Fatalf("P=%d: rank %d box %d component %d patch %d is not cell %v on its result's storage", p, q, j, c, k, pt.Cell)
						}
					}
				}
			}
		}
	}
}

// TestExchangeEncodesRefilledValues: send lists are built once on the
// results, and each Encode frames what the results hold then — every
// patch its cell's lattice view — so a run that refills the results in
// place sends the new values.
func TestExchangeEncodesRefilledValues(t *testing.T) {
	d := grid.Cube(32)
	x, err := NewExchange(d, 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := x.Owned(1)
	outs := make([][]*sample.Compressed, len(src))
	for i, j := range src {
		tree, err := sample.DefaultPolicy(x.Boxes[j], 8).Tree(d)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = []*sample.Compressed{sample.NewCompressed(tree)}
	}
	send := x.Sends(src, outs)
	for run := range 2 {
		for i, o := range outs {
			for s := range o[0].Samples {
				o[0].Samples[s] = float64(run*1_000_000 + i*10_000 + s)
			}
		}
		recv := make([][]float64, 3)
		recv[1] = x.Encode(send)[0]
		in, err := x.Decode(recv)
		if err != nil {
			t.Fatal(err)
		}
		if len(in[1]) != len(src) {
			t.Fatalf("run %d: %d groups, want %d", run, len(in[1]), len(src))
		}
		for i, g := range in[1] {
			res, pts, sent := outs[i][0], g.Comps[0], send[0][i].Comps[0]
			if len(pts) != len(sent) {
				t.Fatalf("run %d box %d: %d patches, sent %d", run, g.Box, len(pts), len(sent))
			}
			for k, pt := range pts {
				ci := slices.Index(res.Tree.Cells, sent[k].Cell)
				if pt.Cell != sent[k].Cell || !slices.Equal(pt.Samples, res.AppendLattice(nil, ci)) {
					t.Fatalf("run %d box %d patch %d: cell %v does not carry its lattice as it stands", run, g.Box, k, pt.Cell)
				}
			}
		}
	}
}
