package cluster

import (
	"math"
	"slices"
	"strings"
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// policyExchange is the exchange LowCommConvolve lays out: C = comps
// results per box of d's k-decomposition on p ranks, every box's tree
// sample.DefaultPolicy's at far rate far, placed from one plan set.
func policyExchange(t testing.TB, d grid.Dim3, k, p, comps, far int) *Exchange {
	t.Helper()
	plans, err := conv.NewPlanSet(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewExchange(d, k, p, comps, policyTrees(plans, far))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// results returns C fresh results on the tree of each box src[i].
func results(x *Exchange, src []int) [][]*sample.Compressed {
	outs := make([][]*sample.Compressed, len(src))
	for i, j := range src {
		outs[i] = make([]*sample.Compressed, x.comps)
		for c := range outs[i] {
			outs[i][c] = sample.NewCompressed(x.trees[j])
		}
	}
	return outs
}

// TestExchangeOwnedRoundRobin: every box has exactly one owner, rank
// j mod P, and the ranks' loads differ by at most one.
func TestExchangeOwnedRoundRobin(t *testing.T) {
	d := grid.Cube(8)
	x, err := NewExchange(d, 2, 5, 1, func(int, grid.Box) (*octree.Tree, error) { // 64 boxes
		return sample.Uniform{Rate: 1, CellSize: 2}.Tree(d)
	})
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

// TestExchangeErrors: a bad layout fails to build, and Decode rejects
// every message that is not groups of boxes the sender owns, ascending,
// each exactly as long as its route says — naming the sender.
func TestExchangeErrors(t *testing.T) {
	d := grid.Cube(16)
	if _, err := NewExchange(d, 8, 0, 1, nil); err == nil {
		t.Error("zero workers should fail")
	}
	if _, err := NewExchange(d, 6, 2, 1, nil); err == nil {
		t.Error("a grid k does not divide should fail")
	}
	if _, err := NewExchange(d, 8, 2, 1, func(int, grid.Box) (*octree.Tree, error) { return sample.DefaultPolicy(grid.Box{}, 4).Tree(d) }); err == nil {
		t.Error("a tree that fails to build should fail")
	}
	x := policyExchange(t, d, 8, 2, 1, 4) // rank 0 owns the even boxes
	msg := x.Encode(x.Owned(0), results(x, x.Owned(0)))[1]
	if gs, err := x.Decode(1, [][]float64{msg, x.Encode(x.Owned(1), results(x, x.Owned(1)))[1]}); err != nil || len(gs) != len(x.Boxes) {
		t.Fatalf("both ranks' real messages: %d groups, %v", len(gs), err)
	}
	edit := func(f func(m []float64) []float64) []float64 { return f(slices.Clone(msg)) }
	g0, g2 := x.groupLen(0, 1), x.groupLen(2, 1) // the first two groups: boxes 0 and 2
	for name, bad := range map[string][]float64{
		"a truncated group":             msg[:len(msg)-1],
		"trailing values":               append(slices.Clone(msg), 0, 0),
		"a NaN box index":               edit(func(m []float64) []float64 { m[0] = math.NaN(); return m }),
		"a fractional box index":        edit(func(m []float64) []float64 { m[0] = 0.5; return m }),
		"a box the sender does not own": edit(func(m []float64) []float64 { m[0] = 1; return m }),
		"a box past the decomposition":  edit(func(m []float64) []float64 { m[0] = 8; return m }),
		"indices out of order":          append(slices.Clone(msg[g0:g0+g2]), msg[:g0]...),
		"one box twice":                 append(slices.Clone(msg[:g0]), msg[:g0]...),
	} {
		_, err := x.Decode(1, [][]float64{bad, nil})
		if err == nil || !strings.Contains(err.Error(), "rank 0 ") {
			t.Errorf("%s: Decode returned %v, want an error naming rank 0", name, err)
		}
	}
	// On nine ranks rank 8 owns no box of the eight, so no route leads to
	// it and any group sent to it is refused.
	x9 := policyExchange(t, d, 8, 9, 1, 4)
	if _, err := x9.Decode(8, [][]float64{{0}}); err == nil || !strings.Contains(err.Error(), "rank 0 ") {
		t.Errorf("a group for a rank with no route: Decode returned %v, want an error naming rank 0", err)
	}
}

// TestExchangeSendsOverlaps: the lattice lookup routes to each rank
// exactly the cells that overlap one of its boxes, found here by testing
// every box, in cell order; the route's samples are those cells' distinct
// stored samples in the order the cells first read them — the storage
// order itself on one rank; and each cell's view reads its lattice from
// them.
func TestExchangeSendsOverlaps(t *testing.T) {
	d := grid.Cube(32)
	for _, p := range []int{1, 3, 4} {
		x := policyExchange(t, d, 8, p, 2, 8)
		for _, j := range []int{0, 21, 63} {
			tree := x.trees[j]
			index := tree.Index()
			for q := range p {
				r := &x.routes[j][q]
				var cells, samples []int32
				seen := map[int32]bool{}
				for ci, cell := range tree.Cells {
					for _, b := range x.Owned(q) {
						if cell.Box.Overlaps(x.Boxes[b]) {
							cells = append(cells, int32(ci))
							for _, s := range index.Cell(ci) {
								if !seen[s] {
									samples = append(samples, s)
									seen[s] = true
								}
							}
							break
						}
					}
				}
				if p == 1 && !slices.IsSorted(samples) {
					t.Fatalf("box %d: one rank's route is not the storage order", j)
				}
				if !slices.Equal(r.cells, cells) || !slices.Equal(r.samples, samples) {
					t.Fatalf("P=%d box %d rank %d: routes %d cells and %d samples, want %d and %d", p, j, q, len(r.cells), len(r.samples), len(cells), len(samples))
				}
				for i, ci := range r.cells {
					for k, s := range index.Cell(int(ci)) {
						if r.samples[r.views[i][k]] != s {
							t.Fatalf("P=%d box %d rank %d cell %d: slot %d reads sample %d, want %d", p, j, q, ci, k, r.samples[r.views[i][k]], s)
						}
					}
				}
			}
		}
	}
}

// TestExchangeEncodesRefilledValues: each Encode carries what the results
// hold then, so a run that refills them in place sends the new values, and
// every decoded cell reads its lattice as its result holds it — for one
// component and for six.
func TestExchangeEncodesRefilledValues(t *testing.T) {
	d := grid.Cube(32)
	for _, comps := range []int{1, 6} {
		x := policyExchange(t, d, 8, 3, comps, 8)
		src := x.Owned(1)
		outs := results(x, src)
		for run := range 2 {
			for i, o := range outs {
				for c, res := range o {
					for s := range res.Samples {
						res.Samples[s] = float64(run*10_000_000 + c*1_000_000 + i*10_000 + s)
					}
				}
			}
			for q, msg := range x.Encode(src, outs) {
				gs, err := x.Decode(q, [][]float64{nil, msg, nil})
				if err != nil {
					t.Fatal(err)
				}
				if len(gs) != len(src) {
					t.Fatalf("C=%d run %d rank %d: %d groups, want %d", comps, run, q, len(gs), len(src))
				}
				for i, g := range gs {
					r := &x.routes[g.Box][q]
					for c, res := range outs[i] {
						for k, ci := range r.cells {
							var got []float64
							for _, v := range r.views[k] {
								got = append(got, g.Vals[c][v])
							}
							if !slices.Equal(got, res.AppendLattice(nil, int(ci))) {
								t.Fatalf("C=%d run %d rank %d box %d component %d: cell %d does not carry its lattice as it stands", comps, run, q, g.Box, c, ci)
							}
						}
					}
				}
			}
		}
	}
}
