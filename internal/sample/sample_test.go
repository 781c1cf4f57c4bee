package sample

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

func TestDefaultPolicyValidates(t *testing.T) {
	p := DefaultPolicy(grid.CubeAt(grid.Point{8, 8, 8}, 16), 16)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyValidateErrors(t *testing.T) {
	sub := grid.CubeAt(grid.Point{0, 0, 0}, 8)
	bad := []Policy{
		{Sub: sub, NearRate: 3, MidRate: 8, FarRate: 16},
		{Sub: sub, NearRate: 2, MidRate: 0, FarRate: 16},
		{Sub: sub, NearRate: 2, MidRate: 8, FarRate: -16},
		{Sub: grid.Box{}, NearRate: 2, MidRate: 8, FarRate: 16},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d should fail validation", i)
		}
	}
}

func TestRateAtRegions(t *testing.T) {
	// 64³ grid, 16³ sub-domain at (16,16,16): k=16, thresholds k/2=8, 4k=64.
	d := grid.Cube(64)
	sub := grid.CubeAt(grid.Point{16, 16, 16}, 16)
	p := Policy{Sub: sub, NearRate: 2, MidRate: 8, FarRate: 32}
	cases := []struct {
		x, y, z, want int
	}{
		{20, 20, 20, 1}, // inside sub-domain
		{16, 16, 16, 1}, // sub corner
		{33, 20, 20, 2}, // distance 2 ≤ 8 → near
		{39, 20, 20, 2}, // distance 8 → near (boundary inclusive)
		{41, 20, 20, 8}, // distance 10 → mid
		{8, 20, 20, 2},  // below in x, distance 8 → near
		{63, 63, 63, 8}, // distance 32 < 64 → mid
	}
	for _, c := range cases {
		if got := p.RateAt(d, c.x, c.y, c.z); got != c.want {
			t.Errorf("RateAt(%d,%d,%d) = %d want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestRateAtFarRegion(t *testing.T) {
	// Tiny sub-domain so the far region exists: k=4, 4k=16.
	d := grid.Cube(64)
	p := Policy{Sub: grid.CubeAt(grid.Point{0, 0, 0}, 4), NearRate: 2, MidRate: 8, FarRate: 32}
	if got := p.RateAt(d, 40, 40, 40); got != 32 {
		t.Errorf("far rate = %d want 32", got)
	}
}

func TestRateAtWrapsAround(t *testing.T) {
	// A corner sub-domain's shells wrap onto the opposite faces, as the
	// cyclic convolution does: k=8, thresholds k/2=4 and 4k=32.
	d := grid.Cube(64)
	p := DefaultPolicy(grid.CubeAt(grid.Point{0, 0, 0}, 8), 32)
	cases := []struct {
		x, y, z, want int
	}{
		{63, 4, 4, 2},   // one step across the x face
		{60, 60, 60, 2}, // distance 4 through the far corner
		{59, 4, 4, 8},   // distance 5
		{40, 4, 4, 8},   // distance min(33, 24) = 24 < 4k
	}
	for _, c := range cases {
		if got := p.RateAt(d, c.x, c.y, c.z); got != c.want {
			t.Errorf("RateAt(%d,%d,%d) = %d want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

// TestPolicyTreeConsistentWithPointwiseRates holds RateFunc to RateAt at
// every point of every leaf, for boxes at a corner, inside, at the high
// faces and off the k lattice, with and without a far shell.
func TestPolicyTreeConsistentWithPointwiseRates(t *testing.T) {
	for _, c := range []struct {
		n, k int
		lo   grid.Point
	}{
		{32, 8, grid.Point{8, 8, 8}},
		{32, 8, grid.Point{0, 0, 0}},
		{32, 8, grid.Point{24, 24, 24}},
		{32, 8, grid.Point{3, 21, 14}},
		{16, 4, grid.Point{12, 0, 6}},
		{64, 4, grid.Point{0, 60, 28}}, // N/k = 16: the far shell exists
	} {
		d := grid.Cube(c.n)
		p := DefaultPolicy(grid.CubeAt(c.lo, c.k), 16)
		tree, err := p.Tree(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, cell := range tree.Cells {
			size := cell.Box.Hi[0] - cell.Box.Lo[0]
			// A cell above MinCell has one pointwise rate; one at MinCell
			// may mix them and must adopt the finest present. Either way
			// Build clamps the rate to the cell size.
			finest, coarsest := 1<<30, 0
			cell.Box.ForEach(func(x, y, z int) {
				r := p.RateAt(d, x, y, z)
				finest, coarsest = min(finest, r), max(coarsest, r)
			})
			if size > p.MinCell && finest != coarsest {
				t.Fatalf("n=%d sub %v: cell %v mixes rates %d and %d", c.n, p.Sub, cell.Box, finest, coarsest)
			}
			if cell.Rate != min(finest, size) {
				t.Fatalf("n=%d sub %v: cell %v rate %d but finest pointwise rate is %d",
					c.n, p.Sub, cell.Box, cell.Rate, finest)
			}
		}
	}
}

func TestPolicyTreeSubdomainFullResolution(t *testing.T) {
	d := grid.Cube(64)
	sub := grid.CubeAt(grid.Point{16, 16, 16}, 16)
	p := DefaultPolicy(sub, 32)
	tree, err := p.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	sub.ForEach(func(x, y, z int) {
		ci := tree.FindCell(x, y, z)
		if ci < 0 || tree.Cells[ci].Rate != 1 {
			t.Fatalf("sub-domain point (%d,%d,%d) not at full resolution", x, y, z)
		}
	})
}

func TestPolicyTreeCompresses(t *testing.T) {
	// The whole point: far fewer samples than grid points (paper Table 1).
	d := grid.Cube(128)
	sub := grid.CubeAt(grid.Point{0, 0, 0}, 32)
	p := DefaultPolicy(sub, 16)
	tree, err := p.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	samples := tree.SampleCount()
	if ratio := float64(d.Len()) / float64(samples); ratio < 4 {
		t.Errorf("compression ratio %.2f too low (samples %d of %d)", ratio, samples, d.Len())
	}
}

func smoothField(d grid.Dim3) *grid.Field {
	f := grid.NewField(d)
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				f.Set(x, y, z, math.Sin(2*math.Pi*float64(x)/float64(d.Nx))*
					math.Cos(2*math.Pi*float64(y)/float64(d.Ny))+
					0.5*math.Cos(2*math.Pi*float64(z)/float64(d.Nz)))
			}
		}
	}
	return f
}

func TestCompressReconstructExactAtRateOne(t *testing.T) {
	d := grid.Cube(16)
	p := Uniform{Rate: 1, CellSize: 8}
	tree, err := p.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(d)
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(back, f); r > 1e-14 {
		t.Errorf("rate-1 reconstruction error %g", r)
	}
}

func TestReconstructSmoothFieldAccurate(t *testing.T) {
	d := grid.Cube(32)
	// Rate 2 on a period-32 sine: ~8 linear segments per half period keep
	// the L2 error at the percent level.
	tree, err := Uniform{Rate: 2, CellSize: 8}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(d)
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := grid.RelL2(back, f)
	if r > 0.05 {
		t.Errorf("smooth-field trilinear error %g > 5%%", r)
	}
}

func TestTrilinearBeatsNearest(t *testing.T) {
	d := grid.Cube(32)
	tree, err := Uniform{Rate: 4, CellSize: 8}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(d)
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := c.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	near, err := c.NearestReconstruct()
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := grid.RelL2(tri, f)
	rn, _ := grid.RelL2(near, f)
	if rt >= rn {
		t.Errorf("trilinear error %g should beat nearest %g on a smooth field", rt, rn)
	}
}

func TestAddRegionMatchesFullOnRegion(t *testing.T) {
	d := grid.Cube(32)
	sub := grid.CubeAt(grid.Point{8, 8, 8}, 8)
	tree, err := DefaultPolicy(sub, 16).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(d)
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	region := grid.CubeAt(grid.Point{4, 4, 4}, 12)
	partial := grid.NewField(d)
	if err := c.AddRegion(partial, region, 1); err != nil {
		t.Fatal(err)
	}
	region.ForEach(func(x, y, z int) {
		if math.Abs(partial.At(x, y, z)-full.At(x, y, z)) > 1e-13 {
			t.Fatalf("region value mismatch at (%d,%d,%d)", x, y, z)
		}
	})
	// Outside region must be untouched. Check a few exterior corners.
	for _, pnt := range []grid.Point{{0, 0, 0}, {31, 31, 31}, {20, 0, 0}} {
		if partial.At(pnt[0], pnt[1], pnt[2]) != 0 {
			t.Fatalf("leak outside region at %v", pnt)
		}
	}
}

func TestAddToScaleLinearity(t *testing.T) {
	d := grid.Cube(16)
	tree, err := Uniform{Rate: 2, CellSize: 4}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(d)
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	once, err := c.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	acc := grid.NewField(d)
	if err := c.AddTo(acc, 2.5); err != nil {
		t.Fatal(err)
	}
	for i := range acc.Data {
		if math.Abs(acc.Data[i]-2.5*once.Data[i]) > 1e-12 {
			t.Fatalf("scale linearity violated at %d", i)
		}
	}
}

func TestCompressionBookkeeping(t *testing.T) {
	d := grid.Cube(64)
	sub := grid.CubeAt(grid.Point{16, 16, 16}, 16)
	tree, err := DefaultPolicy(sub, 16).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompressed(tree)
	if len(c.Samples) != tree.SampleCount() {
		t.Fatalf("sample storage %d != %d", len(c.Samples), tree.SampleCount())
	}
	if got, want := c.MemoryBytes(), 8*len(c.Samples)+tree.MetadataBytes(); got != want {
		t.Fatalf("memory bytes %d want %d", got, want)
	}
	if c.CompressionRatio() <= 1 {
		t.Errorf("compression ratio %.2f should exceed 1", c.CompressionRatio())
	}
}

func TestCompressDimMismatch(t *testing.T) {
	tree, err := Uniform{Rate: 2}.Tree(grid.Cube(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(grid.NewField(grid.Cube(8)), tree); err == nil {
		t.Error("dim mismatch should fail")
	}
	c := NewCompressed(tree)
	if err := c.AddTo(grid.NewField(grid.Cube(8)), 1); err == nil {
		t.Error("AddTo dim mismatch should fail")
	}
	c.Samples = c.Samples[:1]
	if _, err := c.Reconstruct(); err == nil {
		t.Error("truncated samples should fail")
	}
}

func TestUniformTreeErrors(t *testing.T) {
	if _, err := (Uniform{Rate: 3}).Tree(grid.Cube(8)); err == nil {
		t.Error("non power-of-two rate should fail")
	}
	if _, err := (Uniform{Rate: 0}).Tree(grid.Cube(8)); err == nil {
		t.Error("zero rate should fail")
	}
}

func TestDecayingFieldAdaptiveAccuracy(t *testing.T) {
	// A convolution-like result: dense energy in the sub-domain, rapidly
	// decaying tail outside — the adaptive policy must reconstruct it with
	// small relative error (paper §5.3: ≤ 3%).
	d := grid.Cube(64)
	sub := grid.CubeAt(grid.Point{24, 24, 24}, 16)
	center := grid.Point{32, 32, 32}
	f := grid.NewField(d)
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				dx, dy, dz := float64(x-center[0]), float64(y-center[1]), float64(z-center[2])
				r2 := dx*dx + dy*dy + dz*dz
				f.Set(x, y, z, math.Exp(-r2/50))
			}
		}
	}
	tree, err := DefaultPolicy(sub, 16).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := grid.RelL2(back, f)
	if r > 0.03 {
		t.Errorf("decaying-field reconstruction error %g > 3%%", r)
	}
}

func TestPatchCodecQuick(t *testing.T) {
	// Property: encode/decode round-trips arbitrary (valid) patch sets.
	d := grid.Cube(32)
	sub := grid.CubeAt(grid.Point{8, 8, 8}, 8)
	tree, err := DefaultPolicy(sub, 8).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(d)
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	check := func(lox, loy, loz, size uint8) bool {
		region := grid.BoxAt(grid.Point{int(lox) % 32, int(loy) % 32, int(loz) % 32},
			1+int(size)%16, 1+int(size)%16, 1+int(size)%16)
		ps := c.Patches(region)
		msg := EncodePatches(ps)
		back, err := DecodePatches(msg)
		if err != nil {
			return false
		}
		if len(back) != len(ps) {
			return false
		}
		for i := range ps {
			if back[i].Cell != ps[i].Cell || len(back[i].Samples) != len(ps[i].Samples) {
				return false
			}
			for j := range ps[i].Samples {
				if back[i].Samples[j] != ps[i].Samples[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecodePatchesMalformed(t *testing.T) {
	cases := [][]float64{
		nil,
		{-1},
		{1, 0, 0, 0, 2, 1},                   // truncated header
		{1, 0, 0, 0, 2, 1, 5, 1, 2, 3, 4, 5}, // count 5 != cell sample count
		{1, 0, 0, 0, -2, 1, 8},               // negative size
		{2, 0, 0, 0, 1, 1, 8, 1, 2, 3, 4, 5, 6, 7, 8}, // second patch missing
	}
	for i, msg := range cases {
		if _, err := DecodePatches(msg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// lyingPatchMessages are headers that once crashed the decoder: a patch
// count that sized a 10¹²-entry allocation (a fatal, unrecoverable
// out-of-memory), and a 2²²−1 cell whose (size/rate+1)³ lattice count
// wrapped to the 0 samples that followed, so AddToRegion sliced past them.
var lyingPatchMessages = [][]float64{
	{1e12},
	{1, 0, 0, 0, 1<<22 - 1, 1, 0},
}

func TestDecodeRejectsLyingHeaders(t *testing.T) {
	for i, msg := range lyingPatchMessages {
		if _, err := DecodePatches(msg); err == nil {
			t.Errorf("message %d: DecodePatches accepted %v", i, msg)
		}
		if _, err := DecodePatchGroups(msg); err == nil {
			t.Errorf("message %d: DecodePatchGroups accepted %v", i, msg)
		}
	}
	if _, err := DecodeComponentPatches([]float64{1e12}); err == nil {
		t.Error("DecodeComponentPatches accepted a 10¹²-component header")
	}
	for _, h := range [][]float64{
		{1, -8, 0, 0, 2, 1, 27}, // negative corner
		{1, 0, 0, 0, 6, 3, 27},  // rate not a power of two
		{1, 0, 0, 0, 6, 4, 8},   // rate does not divide size
		{1, 0, 0, 0, 1<<20 + 2, 2, 8},
		{0.5},
		{math.NaN()},
	} {
		msg := append(h, make([]float64, 27)...)
		if _, err := DecodePatches(msg); err == nil {
			t.Errorf("DecodePatches accepted header %v", h)
		}
	}
}

// TestPatchGroupsRoundTrip: back-to-back EncodePatches messages, empty ones
// included, decode into the same groups in order, and a trailing fragment
// fails.
func TestPatchGroupsRoundTrip(t *testing.T) {
	d := grid.Cube(16)
	tree, err := DefaultPolicy(grid.CubeAt(grid.Point{0, 0, 0}, 8), 4).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(smoothField(d), tree)
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]Patch{c.Patches(grid.BoxAt(grid.Point{0, 0, 4}, 16, 16, 4)), nil, c.Patches(d.Bounds())}
	var msg []float64
	for _, g := range groups {
		msg = append(msg, EncodePatches(g)...)
	}
	back, err := DecodePatchGroups(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(groups) {
		t.Fatalf("%d groups, want %d", len(back), len(groups))
	}
	for i := range groups {
		if len(back[i]) != len(groups[i]) {
			t.Fatalf("group %d: %d patches, want %d", i, len(back[i]), len(groups[i]))
		}
		for j, p := range groups[i] {
			if back[i][j].Cell != p.Cell {
				t.Fatalf("group %d patch %d: cell %v, want %v", i, j, back[i][j].Cell, p.Cell)
			}
			for s, v := range p.Samples {
				if back[i][j].Samples[s] != v {
					t.Fatalf("group %d patch %d sample %d changed", i, j, s)
				}
			}
		}
	}
	if _, err := DecodePatchGroups(append(msg, 3)); err == nil {
		t.Error("a trailing fragment should fail")
	}
}

func TestComponentPatchCodecRoundTrip(t *testing.T) {
	d := grid.Cube(16)
	tree, err := Uniform{Rate: 2, CellSize: 4}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(d)
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	comps := [][]Patch{
		c.Patches(grid.CubeAt(grid.Point{0, 0, 0}, 8)),
		nil, // empty component must survive
		c.Patches(grid.CubeAt(grid.Point{8, 8, 8}, 8)),
	}
	msg := EncodeComponentPatches(comps)
	back, err := DecodeComponentPatches(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("components = %d", len(back))
	}
	for ci := range comps {
		if len(back[ci]) != len(comps[ci]) {
			t.Fatalf("component %d: %d patches want %d", ci, len(back[ci]), len(comps[ci]))
		}
	}
	if _, err := DecodeComponentPatches(nil); err == nil {
		t.Error("empty message should fail")
	}
	if _, err := DecodeComponentPatches([]float64{2, 5}); err == nil {
		t.Error("truncated component should fail")
	}
}

func TestAddToSubFieldMatchesGlobal(t *testing.T) {
	// Applying a patch to a local sub-field view must equal the global
	// AddToRegion restricted to that region.
	d := grid.Cube(32)
	sub := grid.CubeAt(grid.Point{8, 8, 8}, 8)
	tree, err := DefaultPolicy(sub, 8).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(d)
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	origin := grid.Point{4, 12, 20}
	kd := grid.Cube(8)
	region := grid.BoxAt(origin, 8, 8, 8)
	globalDst := grid.NewField(d)
	localDst := grid.NewField(kd)
	for _, p := range c.Patches(region) {
		if err := p.AddToRegion(globalDst, region, 1); err != nil {
			t.Fatal(err)
		}
		if err := p.AddToSubField(localDst, origin, 1); err != nil {
			t.Fatal(err)
		}
	}
	region.ForEach(func(x, y, z int) {
		g := globalDst.At(x, y, z)
		l := localDst.At(x-origin[0], y-origin[1], z-origin[2])
		if g != l {
			t.Fatalf("mismatch at (%d,%d,%d): global %g local %g", x, y, z, g, l)
		}
	})
}

// oracleAddClip is the per-voxel trilinear formula the separable kernel
// replaced, kept as its reference: three divisions and eight lattice loads
// per output. Products are explicitly rounded, as in the kernel, so the two
// may be compared bit for bit on architectures that fuse multiply-adds.
func oracleAddClip(p Patch, dst *grid.Field, origin grid.Point, clip grid.Box, scale float64) {
	cell, s := p.Cell, p.Samples
	r := cell.Rate
	m := cell.LatticePoints()
	inv := 1 / float64(r)
	for z := clip.Lo[2]; z < clip.Hi[2]; z++ {
		lz := z - cell.Box.Lo[2]
		iz := lz / r
		fz := float64(float64(lz%r) * inv)
		for y := clip.Lo[1]; y < clip.Hi[1]; y++ {
			ly := y - cell.Box.Lo[1]
			iy := ly / r
			fy := float64(float64(ly%r) * inv)
			for x := clip.Lo[0]; x < clip.Hi[0]; x++ {
				lx := x - cell.Box.Lo[0]
				ix := lx / r
				fx := float64(float64(lx%r) * inv)
				i000 := (iz*m+iy)*m + ix
				var v float64
				if r == 1 {
					v = s[i000]
				} else {
					i100 := i000 + 1
					i010 := i000 + m
					i110 := i010 + 1
					i001 := i000 + m*m
					i101 := i001 + 1
					i011 := i001 + m
					i111 := i011 + 1
					x00 := float64((1-fx)*s[i000]) + float64(fx*s[i100])
					x10 := float64((1-fx)*s[i010]) + float64(fx*s[i110])
					x01 := float64((1-fx)*s[i001]) + float64(fx*s[i101])
					x11 := float64((1-fx)*s[i011]) + float64(fx*s[i111])
					y0 := float64((1-fy)*x00) + float64(fy*x10)
					y1 := float64((1-fy)*x01) + float64(fy*x11)
					v = float64((1-fz)*y0) + float64(fz*y1)
				}
				dst.Data[dst.Dim.Index(x-origin[0], y-origin[1], z-origin[2])] += float64(scale * v)
			}
		}
	}
}

// kernelCase is one cell with random samples inside a grid that is not
// cubic (so a wrong stride shows) and one clip of the cell.
type kernelCase struct {
	name  string
	dim   grid.Dim3
	patch Patch
	clip  grid.Box
}

// kernelCases covers every (cell size, rate) pair — rate = size is the
// two-point lattice, rate 1 the copy path — with clips that are the whole
// cell, a single voxel, one voxel thick along each axis, and a box whose
// start and end are both off the lattice.
func kernelCases(rng *rand.Rand) []kernelCase {
	var cases []kernelCase
	for _, size := range []int{1, 2, 4, 8, 16, 32} {
		for rate := 1; rate <= size; rate *= 2 {
			lo := grid.Point{1 + rng.Intn(3), rng.Intn(3), 2 + rng.Intn(3)}
			cell := octree.Cell{Box: grid.CubeAt(lo, size), Rate: rate}
			p := Patch{Cell: cell, Samples: make([]float64, cell.SampleCount())}
			for i := range p.Samples {
				p.Samples[i] = rng.NormFloat64()
			}
			dim := grid.Dim3{Nx: size + 5, Ny: size + 4, Nz: size + 7}
			at := func(l [3]int, ext [3]int) grid.Box {
				return grid.BoxAt(grid.Point{lo[0] + l[0], lo[1] + l[1], lo[2] + l[2]}, ext[0], ext[1], ext[2])
			}
			pt := [3]int{rng.Intn(size), rng.Intn(size), rng.Intn(size)}
			clips := []struct {
				name string
				box  grid.Box
			}{
				{"whole", cell.Box},
				{"voxel", at(pt, [3]int{1, 1, 1})},
				{"thinx", at([3]int{pt[0], 0, 0}, [3]int{1, size, size})},
				{"thiny", at([3]int{0, pt[1], 0}, [3]int{size, 1, size})},
				{"thinz", at([3]int{0, 0, pt[2]}, [3]int{size, size, 1})},
				// Start at 1 and stop one short: off the lattice at both ends
				// for every rate > 1 (empty, and skipped, for size ≤ 2).
				{"offlattice", at([3]int{1, 1, 1}, [3]int{size - 2, size - 2, size - 2})},
			}
			for _, c := range clips {
				if c.box.Empty() {
					continue
				}
				cases = append(cases, kernelCase{
					name: fmt.Sprintf("size%d/rate%d/%s", size, rate, c.name),
					dim:  dim, patch: p, clip: c.box,
				})
			}
		}
	}
	return cases
}

func randomField(rng *rand.Rand, d grid.Dim3) *grid.Field {
	f := grid.NewField(d)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func sameBits(t *testing.T, what string, got, want *grid.Field) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			x, y, z := want.Dim.Coords(i)
			t.Fatalf("%s: (%d,%d,%d) = %x, want %x", what, x, y, z,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// TestKernelMatchesFormula holds the separable kernel to the bits of the
// per-voxel formula, through AddToRegion on the whole grid and through
// AddToSubField on a window that is exactly the clip, onto non-zero data.
func TestKernelMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, kc := range kernelCases(rng) {
		for _, scale := range []float64{1, -0.5} {
			base := randomField(rng, kc.dim)
			want := base.Clone()
			oracleAddClip(kc.patch, want, grid.Point{}, kc.clip, scale)

			got := base.Clone()
			if err := kc.patch.AddToRegion(got, kc.clip, scale); err != nil {
				t.Fatal(err)
			}
			sameBits(t, kc.name+" AddToRegion", got, want)

			window, err := base.ExtractBox(kc.clip)
			if err != nil {
				t.Fatal(err)
			}
			if err := kc.patch.AddToSubField(window, kc.clip.Lo, scale); err != nil {
				t.Fatal(err)
			}
			wantWindow, err := want.ExtractBox(kc.clip)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, kc.name+" AddToSubField", window, wantWindow)
		}
	}
}

// TestAddToWarmZeroAllocs pins the accumulation's allocation behaviour: one
// walk of the tree with a running sample offset and no per-cell scratch, so
// a caller that brings its scratch allocates nothing, and AddTo on its own
// at most the scratch it could not find pooled.
func TestAddToWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d := grid.Cube(32)
	tree, err := DefaultPolicy(grid.CubeAt(grid.Point{8, 8, 8}, 8), 16).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(smoothField(d), tree)
	if err != nil {
		t.Fatal(err)
	}
	dst := grid.NewField(d)
	var sc lerpScratch
	if n := testing.AllocsPerRun(10, func() {
		if err := c.addRegion(dst, d.Bounds(), 1, &sc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Compressed.addRegion with a warm scratch: %v allocs, want 0", n)
	}
	patches := c.Patches(d.Bounds())
	if n := testing.AllocsPerRun(10, func() {
		for _, p := range patches {
			if err := p.addRegion(dst, grid.Point{}, d.Bounds(), 1, &sc); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("Patch.addRegion over %d patches with a warm scratch: %v allocs, want 0", len(patches), n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := c.AddTo(dst, 1); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Compressed.AddTo: %v allocs, want ≤ 1", n)
	}
}

// BenchmarkAddTo interpolates and accumulates one sub-domain result into
// the dense grid — the receiver's cost per result in the accumulation step
// — at the three sizes the codec benchmarks use.
func BenchmarkAddTo(b *testing.B) {
	for _, size := range codecBenchSizes {
		c := codecBenchResult(b, size.n, size.k)
		dst := grid.NewField(c.Tree.Dim)
		b.Run(fmt.Sprintf("n%dk%d", size.n, size.k), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * c.Tree.Dim.Len()))
			for i := 0; i < b.N; i++ {
				if err := c.AddTo(dst, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Tree.CellCount()), "cells")
		})
	}
}
