package conv

import (
	"math"
	"testing"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// TestRunComponentsMatchesScalar: carrying C components through the
// pipeline together changes nothing about any one of them. A C = 3 run
// whose callback applies a different scalar kernel to each line must equal
// three C = 1 runs byte for byte — at a sub-domain offset aligned to
// nothing, with and without worker parallelism.
func TestRunComponentsMatchesScalar(t *testing.T) {
	const n, k = 32, 8
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{5, 11, 18}, k)
	tree, err := sample.DefaultPolicy(sub, 8).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	// One separable kernel (table fast path) and two generic ones.
	pws := []Pointwise{
		KernelPointwise(dim, green.Gaussian{Sigma: 1.2}),
		KernelPointwise(dim, green.Poisson{}),
		KernelPointwise(dim, green.Yukawa{Kappa: 0.7}),
	}
	perLine := func(kx, ky0 int, tile [][]complex128) {
		for c := range tile {
			pws[c](kx, ky0, tile[c:c+1])
		}
	}
	in := []*grid.Field{randSub(k, 1), randSub(k, 2), randSub(k, 3)}
	for _, workers := range []int{1, 3} {
		cfg := Config{Workers: workers}
		ps, err := NewPlanSet(dim, workers)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := ps.NewLocalComponents(sub, tree, len(pws), perLine, cfg)
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]*sample.Compressed, len(pws))
		st, err := multi.RunComponents(in, outs)
		if err != nil {
			t.Fatal(err)
		}
		var sum Stats
		for c, pw := range pws {
			scalar, err := ps.NewLocal(sub, tree, pw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, st1, err := scalar.Run(in[c])
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want.Samples {
				if math.Float64bits(outs[c].Samples[i]) != math.Float64bits(w) {
					t.Fatalf("workers %d component %d sample %d: %v != scalar %v",
						workers, c, i, outs[c].Samples[i], w)
				}
			}
			sum.SlabBytes += st1.SlabBytes
			sum.PlanesBytes += st1.PlanesBytes
			sum.SampleBytes += st1.SampleBytes
			sum.SampleCount += st1.SampleCount
			sum.ModelBytes += st1.ModelBytes
			sum.PeakBytes += st1.PeakBytes
		}
		// The footprint of C components is C scalar footprints.
		st.StageA, st.StageB, st.StageC = 0, 0, 0
		sum.KeptZPlanes, sum.PencilCount, sum.Compression = st.KeptZPlanes, st.PencilCount, st.Compression
		if st != sum {
			t.Errorf("workers %d: stats %+v, want the sum of the scalar runs %+v", workers, st, sum)
		}
	}
}

// TestWarmRunComponentsZeroAllocs: a warm six-component run into recycled
// outputs performs no heap allocation — the property serve's warm Submit
// builds on, held here at the pipeline itself.
func TestWarmRunComponentsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the 0-alloc claim is asserted by the non-race suite")
	}
	const n, k, comps = 16, 4, 6
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{4, 8, 12}, k)
	tree, err := sample.DefaultPolicy(sub, 4).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPlanSet(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ps.NewLocalComponents(sub, tree, comps, KernelPointwise(dim, green.Gaussian{Sigma: 1.5}), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]*grid.Field, comps)
	for c := range in {
		in[c] = randSub(k, int64(c))
	}
	outs := make([]*sample.Compressed, comps)
	if _, err := l.RunComponents(in, outs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := l.RunComponents(in, outs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm RunComponents allocates %v times per run, want 0", allocs)
	}
}

// TestRunComponentsMisuse: the scalar entry point on a multi-component
// pipeline, and slices that do not match the component count, are errors.
func TestRunComponentsMisuse(t *testing.T) {
	const n, k = 16, 4
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{0, 0, 0}, k)
	tree, err := sample.DefaultPolicy(sub, 4).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPlanSet(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	pw := KernelPointwise(dim, green.Delta{})
	if _, err := ps.NewLocalComponents(sub, tree, 0, pw, Config{Workers: 1}); err == nil {
		t.Error("zero components accepted")
	}
	l, err := ps.NewLocalComponents(sub, tree, 2, pw, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := randSub(k, 1)
	if _, _, err := l.RunInto(f, nil); err == nil {
		t.Error("RunInto on a two-component pipeline succeeded")
	}
	if _, err := l.RunComponents([]*grid.Field{f}, make([]*sample.Compressed, 2)); err == nil {
		t.Error("one input for two components accepted")
	}
	if _, err := l.RunComponents([]*grid.Field{f, f}, make([]*sample.Compressed, 3)); err == nil {
		t.Error("three outputs for two components accepted")
	}
	if _, err := l.RunComponents([]*grid.Field{f, randSub(k+1, 2)}, make([]*sample.Compressed, 2)); err == nil {
		t.Error("mis-sized second input accepted")
	}
}
