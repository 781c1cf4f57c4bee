package conv

import (
	"math"
	"testing"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// cellSamples maps each cell of a result to its samples.
func cellSamples(res *sample.Compressed) map[octree.Cell][]float64 {
	m := make(map[octree.Cell][]float64, len(res.Tree.Cells))
	for _, p := range res.Patches(res.Tree.Dim.Bounds()) {
		m[p.Cell] = p.Samples
	}
	return m
}

// TestPolicyLocalTranslates builds the pipeline of every box of a regular
// decomposition through NewPolicyLocal and checks it against the box's own
// tree, sample.DefaultPolicy(box, far).Tree. The pipeline's tree holds the
// same cells, and its samples equal, bit for bit at every (cell, lattice
// point), those of the pipeline NewLocal builds on the box's own tree. The
// shared origin geometry is taken exactly where the origin tree moved to the
// box is the box's tree: at every box when N/k ≤ 4, and at N/k = 8, where
// cells of edge 2k appear, at the 8 boxes on the 4k-lattice. A refused box
// gets its own tree. Samples are compared on every box the shared geometry
// serves and on the first few refused ones.
func TestPolicyLocalTranslates(t *testing.T) {
	kernel := green.Gaussian{Sigma: 2}
	for _, c := range []struct{ n, k, shared int }{
		{16, 4, 64}, {32, 8, 64}, {64, 16, 64}, {64, 32, 8}, {128, 32, 64},
		{64, 8, 8}, {128, 16, 8},
	} {
		dim := grid.Cube(c.n)
		ps, err := NewPlanSet(dim, 0)
		if err != nil {
			t.Fatal(err)
		}
		pw := KernelPointwise(dim, kernel)
		boxes, err := grid.Decompose(dim, c.k)
		if err != nil {
			t.Fatal(err)
		}
		in := randSub(c.k, 3)
		for _, far := range []int{8, 16} {
			origin, err := sample.DefaultPolicy(grid.CubeAt(grid.Point{}, c.k), far).Tree(dim)
			if err != nil {
				t.Fatal(err)
			}
			shared, refusedRun := 0, 0
			for _, box := range boxes {
				pol := sample.DefaultPolicy(box, far)
				own, err := pol.Tree(dim)
				if err != nil {
					t.Fatal(err)
				}
				ownCells := map[octree.Cell]bool{}
				for _, cell := range own.Cells {
					ownCells[cell] = true
				}
				matches := len(origin.Cells) == len(own.Cells)
				for _, cell := range origin.Cells {
					var lo grid.Point
					for i := range lo {
						lo[i] = (cell.Box.Lo[i] + box.Lo[i]) % c.n
					}
					matches = matches && ownCells[octree.Cell{Box: grid.CubeAt(lo, cell.Box.Hi[0]-cell.Box.Lo[0]), Rate: cell.Rate}]
				}
				g, err := ps.policyGeometry(pol)
				if err != nil {
					t.Fatal(err)
				}
				fromOrigin := g.at == grid.Point{}
				if fromOrigin != matches {
					t.Errorf("%d³/k%d far %d, box %v: shared geometry taken %v, origin tree moved matches %v", c.n, c.k, far, box, fromOrigin, matches)
				}
				if fromOrigin {
					shared++
				}
				l, err := ps.NewPolicyLocal(pol, pw, Config{})
				if err != nil {
					t.Fatal(err)
				}
				got := l.Tree()
				if len(got.Cells) != len(own.Cells) {
					t.Fatalf("%d³/k%d far %d, box %v: %d cells, own tree %d", c.n, c.k, far, box, len(got.Cells), len(own.Cells))
				}
				for _, cell := range got.Cells {
					if !ownCells[cell] {
						t.Fatalf("%d³/k%d far %d, box %v: cell %v at rate %d is not the own tree's", c.n, c.k, far, box, cell.Box, cell.Rate)
					}
				}
				if !fromOrigin {
					if refusedRun++; refusedRun > 3 {
						continue
					}
				}
				if raceEnabled && c.n > 32 {
					continue // the trees are checked; the runs take minutes under the detector
				}
				res, _, err := l.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				l.ReleaseBuffers()
				ref, err := ps.NewLocal(box, own, pw, Config{})
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := ref.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				ref.ReleaseBuffers()
				direct := cellSamples(want)
				for cell, s := range cellSamples(res) {
					for i, v := range s {
						if math.Float64bits(v) != math.Float64bits(direct[cell][i]) {
							t.Fatalf("%d³/k%d far %d, box %v, cell %v sample %d: %v, own pipeline %v", c.n, c.k, far, box, cell.Box, i, v, direct[cell][i])
						}
					}
				}
			}
			if shared != c.shared {
				t.Errorf("%d³/k%d far %d: %d of %d boxes take the shared geometry, want %d", c.n, c.k, far, shared, len(boxes), c.shared)
			}
			t.Logf("%d³/k%d far %d: %d of %d boxes take the shared geometry", c.n, c.k, far, shared, len(boxes))
		}
	}
}
