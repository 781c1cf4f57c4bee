package conv

import (
	"testing"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// TestAccumulateBoundarySubdomains accumulates rate-1 (exact) results from
// sub-domains placed against the grid boundary: their convolution results
// wrap periodically, so the high-corner placements exercise the torus
// wrapping in the sample interpolation, not just interior adds.
func TestAccumulateBoundarySubdomains(t *testing.T) {
	n, k := 16, 4
	dim := grid.Cube(n)
	kernel := green.Gaussian{Sigma: 1.2}
	for _, tc := range []struct {
		name string
		los  []grid.Point
	}{
		{"high-corner", []grid.Point{{n - k, n - k, n - k}}},
		{"low-and-high-corner", []grid.Point{{0, 0, 0}, {n - k, n - k, n - k}}},
		{"mixed-faces", []grid.Point{{n - k, 0, n - k}, {0, n - k, 0}}},
		{"adjacent-at-seam", []grid.Point{{n - k, n - k, 0}, {0, n - k, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var results []*sample.Compressed
			want := grid.NewField(dim)
			for i, lo := range tc.los {
				sub := grid.CubeAt(lo, k)
				tree, err := sample.Uniform{Rate: 1, CellSize: 8}.Tree(dim)
				if err != nil {
					t.Fatal(err)
				}
				local, err := NewLocal(dim, sub, tree, KernelPointwise(dim, kernel),
					Config{})
				if err != nil {
					t.Fatal(err)
				}
				subField := randSub(k, int64(100+i))
				res, _, err := local.Run(subField)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
				ref, err := BaselineSubdomain(dim, sub, subField, kernel, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := want.AddScaled(1, ref); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Accumulate(dim, results)
			if err != nil {
				t.Fatal(err)
			}
			if r, _ := grid.RelL2(got, want); r > 1e-10 {
				t.Errorf("boundary accumulation error %g", r)
			}
		})
	}
}

// TestAccumulateSingleCellRateOneTree runs the pipeline with the most
// degenerate octree possible — one root cell at rate 1 spanning the whole
// grid — and checks the accumulated result is still the exact convolution.
// This is the tree shape DecodeMeta produces for a 1-cell metadata block,
// so it must work end to end, not just validate.
func TestAccumulateSingleCellRateOneTree(t *testing.T) {
	n, k := 16, 4
	dim := grid.Cube(n)
	tree, err := octree.Build(dim, func(grid.Box) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Cells) != 1 {
		t.Fatalf("constant rate function should give one root cell, got %d", len(tree.Cells))
	}
	kernel := green.Gaussian{Sigma: 1.2}
	sub := grid.CubeAt(grid.Point{n - k, 2, n - k}, k) // straddles the wrap in x and z
	local, err := NewLocal(dim, sub, tree, KernelPointwise(dim, kernel), Config{})
	if err != nil {
		t.Fatal(err)
	}
	subField := randSub(k, 7)
	res, st, err := local.Run(subField)
	if err != nil {
		t.Fatal(err)
	}
	if st.SampleCount != res.Tree.SampleCount() {
		t.Errorf("stats report %d samples, tree has %d", st.SampleCount, res.Tree.SampleCount())
	}
	got, err := Accumulate(dim, []*sample.Compressed{res})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BaselineSubdomain(dim, sub, subField, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(got, want); r > 1e-10 {
		t.Errorf("single-cell rate-1 tree accumulation error %g", r)
	}
}
