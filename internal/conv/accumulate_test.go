package conv

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// boxResults samples one random field per k-box of an n³ grid on that box's
// DefaultPolicy tree: (n/k)³ results shaped like a solve's, with values
// whose sum depends on the order of addition in every bit.
func boxResults(tb testing.TB, n, k, far int) []*sample.Compressed {
	tb.Helper()
	dim := grid.Cube(n)
	boxes, err := grid.Decompose(dim, k)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n + k)))
	f := grid.NewField(dim)
	results := make([]*sample.Compressed, len(boxes))
	for i, b := range boxes {
		tree, err := sample.DefaultPolicy(b, far).Tree(dim)
		if err != nil {
			tb.Fatal(err)
		}
		for j := range f.Data {
			f.Data[j] = rng.NormFloat64()
		}
		if results[i], err = sample.Compress(f, tree); err != nil {
			tb.Fatal(err)
		}
	}
	return results
}

// TestAccumulateScheduleFree: the slab-parallel accumulation is the serial
// AddTo loop bit for bit whatever the worker count — 3 and 5 do not divide
// Nz = 32, so slabs cut through cells at uneven heights — and a result on
// another grid is reported by its index.
func TestAccumulateScheduleFree(t *testing.T) {
	const n, k = 32, 8
	dim := grid.Cube(n)
	results := boxResults(t, n, k, 8)
	want := grid.NewField(dim)
	for _, r := range results {
		if err := r.AddTo(want, 1); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 5} {
		runtime.GOMAXPROCS(procs)
		got, err := Accumulate(dim, results)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("GOMAXPROCS %d: voxel %d is %v, the serial loop gives %v", procs, i, got.Data[i], w)
			}
		}
	}

	other, err := sample.Uniform{Rate: 1, CellSize: 4}.Tree(grid.Cube(16))
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append([]*sample.Compressed{}, results[:5]...), sample.NewCompressed(other))
	if _, err := Accumulate(dim, bad); err == nil || !strings.Contains(err.Error(), "result 5") {
		t.Errorf("a result on another grid at index 5: got error %v", err)
	}
}

// TestRecycledBuffersNeedNoClearing: a pipeline that draws its buffer from
// the pool computes the samples a fresh one does even when the pooled
// buffer is full of NaN and was sized for another box — here a corner box
// and a smaller interior one that is off the octree's alignment, so the x
// spectra, the kept-row count and the kx blocks all differ in size. Stage A
// writes every x-spectrum element, stage B clears or writes every block
// line it reads and writes every kept row.
func TestRecycledBuffersNeedNoClearing(t *testing.T) {
	const n = 32
	dim := grid.Cube(n)
	ps, err := NewPlanSet(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	boxes := [2]grid.Box{grid.CubeAt(grid.Point{0, 0, 0}, 8), grid.CubeAt(grid.Point{8, 16, 11}, 4)}
	nan := complex(math.NaN(), math.NaN())
	for _, tc := range []struct {
		comps int
		pw    Pointwise
	}{
		{1, KernelPointwise(dim, green.Gaussian{Sigma: 1.5})},
		{grid.NumVoigt, gammaLike(dim)},
	} {
		newLocal := func(sub grid.Box) *Local {
			tree, err := sample.DefaultPolicy(sub, 8).Tree(dim)
			if err != nil {
				t.Fatal(err)
			}
			l, err := ps.NewLocalComponents(sub, tree, tc.comps, tc.pw, Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		run := func(l *Local) []*sample.Compressed {
			in := make([]*grid.Field, tc.comps)
			for c := range in {
				in[c] = randSub(l.k, int64(70+c))
			}
			outs := make([]*sample.Compressed, tc.comps)
			if _, err := l.RunComponents(in, outs); err != nil {
				t.Fatal(err)
			}
			return outs
		}
		if a, b := newLocal(boxes[0]), newLocal(boxes[1]); len(a.keptZ) == len(b.keptZ) || len(a.rows) == len(b.rows) {
			t.Fatalf("both boxes keep %d planes and %d rows; the test needs them to differ", len(a.keptZ), len(a.rows))
		}
		// The pool may drop a buffer (under -race it does so at random), so
		// go round a few times, in both orders of sizes.
		for round := 0; round < 8; round++ {
			first, second := boxes[round%2], boxes[1-round%2]
			want := run(newLocal(second))

			a := newLocal(first)
			run(a)
			if len(a.xspec)+len(a.kept)+len(a.blocks) != len(a.buf) {
				t.Fatalf("x spectra, kept rows and blocks cover %d of the buffer's %d elements",
					len(a.xspec)+len(a.kept)+len(a.blocks), len(a.buf))
			}
			buf := a.buf
			a.ReleaseBuffers()
			for i := range buf {
				buf[i] = nan
			}
			b := newLocal(second)
			got := run(b)
			b.ReleaseBuffers()
			for c := range want {
				for i, w := range want[c].Samples {
					if math.Float64bits(got[c].Samples[i]) != math.Float64bits(w) {
						t.Fatalf("C=%d %v after %v: component %d sample %d is %v, a fresh pipeline gives %v",
							tc.comps, second, first, c, i, got[c].Samples[i], w)
					}
				}
			}
		}
	}
}

// BenchmarkAccumulate is a solve's last step at the solve-n64-k16 shape: 64
// sub-domain results interpolated and summed into the 64³ field. Run with
// -cpu 1,2 to see the slab split; the bytes are the dense voxels every
// result is interpolated onto.
func BenchmarkAccumulate(b *testing.B) {
	const n, k = 64, 16
	dim := grid.Cube(n)
	results := boxResults(b, n, k, 16)
	b.ReportAllocs()
	b.SetBytes(int64(8 * dim.Len() * len(results)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Accumulate(dim, results); err != nil {
			b.Fatal(err)
		}
	}
}
