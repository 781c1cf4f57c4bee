package conv

import (
	"testing"

	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// roll returns f circularly shifted by −s: out(p) = f(p + s mod N).
func roll(f *grid.Field, s grid.Point) *grid.Field {
	d := f.Dim
	out := grid.NewField(d)
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				out.Set(x, y, z, f.At((x+s[0])%d.Nx, (y+s[1])%d.Ny, (z+s[2])%d.Nz))
			}
		}
	}
	return out
}

// TestLocalShiftEquivariance runs one sub-field at a corner box, at the box
// holding the grid's centre and at a box touching the high faces. Sampling
// distances are measured on the torus, so the three sampled results are
// circular shifts of one another: the trees are translates, they keep as
// many samples and z planes, and the reconstructions are rolls.
func TestLocalShiftEquivariance(t *testing.T) {
	for _, c := range []struct{ n, k int }{{64, 16}, {32, 8}} {
		dim := grid.Cube(c.n)
		plans, err := NewPlanSet(dim, 0)
		if err != nil {
			t.Fatal(err)
		}
		pw := KernelPointwise(dim, green.Gaussian{Sigma: 2})
		in := lowFreqSub(c.k, 1.5, 31)
		type cellKey struct {
			lo         grid.Point
			size, rate int
		}
		var refCells map[cellKey]int
		var refStats Stats
		var ref *grid.Field
		for _, o := range []int{0, c.n / 2, c.n - c.k} {
			lo := grid.Point{o, o, o}
			box := grid.CubeAt(lo, c.k)
			tree, err := sample.DefaultPolicy(box, 16).Tree(dim)
			if err != nil {
				t.Fatal(err)
			}
			cells := map[cellKey]int{}
			for _, cell := range tree.Cells {
				var at grid.Point
				for i := range at {
					at[i] = (cell.Box.Lo[i] - lo[i] + c.n) % c.n
				}
				cells[cellKey{at, cell.Box.Hi[0] - cell.Box.Lo[0], cell.Rate}]++
			}
			local, err := plans.NewLocal(box, tree, 1, pw, Config{})
			if err != nil {
				t.Fatal(err)
			}
			res, st, err := local.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := res.Reconstruct()
			if err != nil {
				t.Fatal(err)
			}
			back := roll(dense, lo)
			if ref == nil {
				refCells, refStats, ref = cells, st, back
				continue
			}
			if len(cells) != len(refCells) {
				t.Fatalf("n=%d k=%d box %v: %d distinct cells, corner box %d", c.n, c.k, box, len(cells), len(refCells))
			}
			for key, count := range refCells {
				if cells[key] != count {
					t.Fatalf("n=%d k=%d box %v: cell %+v appears %d times, %d in the corner box's tree shifted", c.n, c.k, box, key, cells[key], count)
				}
			}
			if st.SampleCount != refStats.SampleCount || st.KeptZPlanes != refStats.KeptZPlanes {
				t.Errorf("n=%d k=%d box %v: %d samples on %d planes, corner box %d on %d",
					c.n, c.k, box, st.SampleCount, st.KeptZPlanes, refStats.SampleCount, refStats.KeptZPlanes)
			}
			if rel, err := grid.RelL2(back, ref); err != nil || rel > 1e-12 {
				t.Errorf("n=%d k=%d box %v: rolled reconstruction differs from the corner box's by %.3g (%v)", c.n, c.k, box, rel, err)
			}
		}
	}
}

// TestKeptZPlanesMatchModel pins gpu.KeptZPlanes, the memory model's count
// of z planes carrying samples, to the count the pipeline keeps, for a
// corner and a centre box. At N/k ≤ 8 no point is 4k from the sub-domain on
// the torus and the model is exact; at N/k = 16 the far shell starts at an
// offset that is not on the rate-8 lattice, and the residual is logged.
func TestKeptZPlanesMatchModel(t *testing.T) {
	for _, c := range []struct{ n, k int }{{16, 8}, {32, 8}, {64, 8}, {64, 16}, {128, 32}, {128, 16}, {256, 32}, {128, 8}, {256, 16}} {
		dim := grid.Cube(c.n)
		plans, err := NewPlanSet(dim, 0)
		if err != nil {
			t.Fatal(err)
		}
		pw := KernelPointwise(dim, green.Gaussian{Sigma: 1})
		model := gpu.KeptZPlanes(c.n, c.k, 16)
		for _, o := range []int{0, c.n / 2} {
			box := grid.CubeAt(grid.Point{o, o, o}, c.k)
			tree, err := sample.DefaultPolicy(box, 16).Tree(dim)
			if err != nil {
				t.Fatal(err)
			}
			local, err := plans.NewLocal(box, tree, 1, pw, Config{})
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := local.Run(grid.NewField(grid.Cube(c.k)))
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.n/c.k > 8:
				t.Logf("n=%d k=%d box %v: %d kept planes, model %d (residual %+d)", c.n, c.k, box, st.KeptZPlanes, model, st.KeptZPlanes-model)
			case st.KeptZPlanes != model:
				t.Errorf("n=%d k=%d box %v: %d kept planes, model %d", c.n, c.k, box, st.KeptZPlanes, model)
			}
		}
	}
}
