package conv

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// runnerCase is one pipeline of TestRunnerManyBoxesSameBits and its inputs.
type runnerCase struct {
	l  *Local
	in []*grid.Field
}

// newRunnerCase places box under far rate 16 with comps components and
// draws its inputs.
func newRunnerCase(t *testing.T, ps *PlanSet, box grid.Box, comps int, pw Pointwise, workers int) runnerCase {
	t.Helper()
	l, err := ps.NewPolicyLocal(sample.DefaultPolicy(box, 16), comps, pw, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]*grid.Field, comps)
	for c := range in {
		in[c] = randSub(box.Size()[0], int64(31*c+box.Lo[0]+7*box.Lo[1]))
	}
	return runnerCase{l, in}
}

// fresh runs c on a pipeline placed anew, on its own first runner.
func (c runnerCase) fresh(t *testing.T, ps *PlanSet, box grid.Box, pw Pointwise, workers int) ([]*sample.Compressed, Stats) {
	t.Helper()
	l, err := ps.NewPolicyLocal(sample.DefaultPolicy(box, 16), c.l.comps, pw, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*sample.Compressed, c.l.comps)
	st, err := l.RunComponents(c.in, outs)
	if err != nil {
		t.Fatal(err)
	}
	return outs, st
}

// sameSamples fails at the first sample of got that is not want's bit for
// bit.
func sameSamples(t *testing.T, what string, got, want []*sample.Compressed) {
	t.Helper()
	for c := range want {
		for i, w := range want[c].Samples {
			if g := got[c].Samples[i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: component %d sample %d is %v, a fresh pipeline gives %v", what, c, i, g, w)
			}
		}
	}
}

// TestRunnerManyBoxesSameBits: one Runner runs a mixed sequence of pipelines
// on a 64³ plan set — k = 16, then 8, then 16, six components under a
// non-separable Hermitian callback and one under a scalar kernel, boxes at
// N/k = 8 off the octree's lattice, so not translates of the origin box —
// and every run's samples equal a fresh pipeline's bit for bit. Each large
// run comes before a small one, so a small run starts on a buffer and
// tiles a larger pipeline left behind. Each run's SlabBytes, PlanesBytes
// and PeakBytes are the fresh pipeline's: that run's own need, not the
// runner's grown capacity.
func TestRunnerManyBoxesSameBits(t *testing.T) {
	dim := grid.Cube(64)
	gamma, scalar := gammaLike(dim), KernelPointwise(dim, green.Gaussian{Sigma: 2})
	big, small := grid.CubeAt(grid.Point{16, 32, 48}, 16), grid.CubeAt(grid.Point{3, 21, 42}, 8)
	small2 := grid.CubeAt(grid.Point{51, 5, 13}, 8)
	for _, workers := range []int{1, 3} {
		ps, err := NewPlanSet(dim, workers)
		if err != nil {
			t.Fatal(err)
		}
		type step struct {
			box   grid.Box
			comps int
			pw    Pointwise
		}
		steps := []step{
			{big, 6, gamma}, {small, 6, gamma}, {small, 1, scalar},
			{big, 1, scalar}, {small2, 6, gamma},
			{big, 6, gamma}, {small2, 1, scalar},
		}
		r := ps.NewRunner()
		for i, s := range steps {
			c := newRunnerCase(t, ps, s.box, s.comps, s.pw, workers)
			want, wst := c.fresh(t, ps, s.box, s.pw, workers)
			outs := make([]*sample.Compressed, s.comps)
			st, err := r.Run(c.l, c.in, outs)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("workers %d step %d, box %v C=%d", workers, i, s.box, s.comps)
			sameSamples(t, what, outs, want)
			if st.SlabBytes != wst.SlabBytes || st.PlanesBytes != wst.PlanesBytes || st.PeakBytes != wst.PeakBytes {
				t.Errorf("%s: slab/planes/peak bytes %d/%d/%d, a fresh pipeline's %d/%d/%d", what,
					st.SlabBytes, st.PlanesBytes, st.PeakBytes, wst.SlabBytes, wst.PlanesBytes, wst.PeakBytes)
			}
		}
	}
}

// TestRunnersShareOneLocal: two runners run one Local at once, each many
// times, and both give a fresh pipeline's bits — a run writes nothing of the
// Local (the race detector checks the rest).
func TestRunnersShareOneLocal(t *testing.T) {
	dim := grid.Cube(32)
	pw := gammaLike(dim)
	box := grid.CubeAt(grid.Point{5, 11, 18}, 8)
	for _, workers := range []int{1, 3} {
		ps, err := NewPlanSet(dim, workers)
		if err != nil {
			t.Fatal(err)
		}
		c := newRunnerCase(t, ps, box, 6, pw, workers)
		want, _ := c.fresh(t, ps, box, pw, workers)
		got := make([][][]*sample.Compressed, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := ps.NewRunner()
				for range 3 {
					outs := make([]*sample.Compressed, 6)
					if _, errs[g] = r.Run(c.l, c.in, outs); errs[g] != nil {
						return
					}
					got[g] = append(got[g], outs)
				}
			}()
		}
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			for _, outs := range got[g] {
				sameSamples(t, fmt.Sprintf("runner %d workers %d", g, workers), outs, want)
			}
		}
	}
}

// TestRunnerRefusesOtherPlanSet: a runner runs only pipelines of its own
// plan set, whose grid and worker count its scratch is cut for — not those
// of another set, even of the same shape.
func TestRunnerRefusesOtherPlanSet(t *testing.T) {
	a, err := NewPlanSet(grid.Cube(16), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []struct{ n, workers int }{{32, 1}, {16, 2}, {16, 1}} {
		ps, err := NewPlanSet(grid.Cube(other.n), other.workers)
		if err != nil {
			t.Fatal(err)
		}
		c := newRunnerCase(t, ps, grid.CubeAt(grid.Point{}, 4), 1, KernelPointwise(ps.dim, green.Delta{}), other.workers)
		if _, err := a.NewRunner().Run(c.l, c.in, make([]*sample.Compressed, 1)); err == nil {
			t.Errorf("a 16³ one-worker runner ran another set's %d³ pipeline on %d workers", other.n, other.workers)
		}
	}
}
