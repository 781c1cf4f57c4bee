package conv

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// boxResults samples one random field per k-box of an n³ grid on that box's
// DefaultPolicy tree: (n/k)³ results shaped like a solve's, with values
// whose sum depends on the order of addition in every bit.
func boxResults(tb testing.TB, n, k, far int) []*sample.Compressed {
	return boxResultsOn(tb, n, k, func(b grid.Box) (*octree.Tree, error) {
		return sample.DefaultPolicy(b, far).Tree(grid.Cube(n))
	})
}

// boxResultsOn is boxResults with the tree of each box chosen by tree.
func boxResultsOn(tb testing.TB, n, k int, tree func(grid.Box) (*octree.Tree, error)) []*sample.Compressed {
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
		t, err := tree(b)
		if err != nil {
			tb.Fatal(err)
		}
		for j := range f.Data {
			f.Data[j] = rng.NormFloat64()
		}
		if results[i], err = sample.Compress(f, t); err != nil {
			tb.Fatal(err)
		}
	}
	return results
}

// TestAccumulateScheduleFree: the slab-parallel accumulation is the
// one-worker run bit for bit whatever the worker count — 3 and 5 do not
// divide Nz = 32, so slabs cut through blocks and cells at uneven heights —
// and a result on another grid is reported by its index.
func TestAccumulateScheduleFree(t *testing.T) {
	const n, k = 32, 8
	dim := grid.Cube(n)
	results := boxResults(t, n, k, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want *grid.Field
	for _, procs := range []int{1, 2, 3, 5} {
		runtime.GOMAXPROCS(procs)
		got, err := Accumulate(dim, results)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		}
		for i, w := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("GOMAXPROCS %d: voxel %d is %v, one worker gives %v", procs, i, got.Data[i], w)
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

// TestAccumulateMatchesReconstructSum is the differential test of the
// block-summed accumulation: it interpolates each block once from the sum
// of the results' corners, which is Σ over results of their single-result
// Reconstruct up to the order of the additions — within 1e-14, relative,
// on solve-shaped decompositions (every box's shells wrap the torus, the
// corner boxes' across three faces) and on uniform trees, and bit for bit
// when every cell has rate 1, where nothing is interpolated.
func TestAccumulateMatchesReconstructSum(t *testing.T) {
	type tc struct {
		name    string
		n, k    int
		tree    func(grid.Box) (*octree.Tree, error)
		bitwise bool
	}
	var cases []tc
	for _, nk := range [][2]int{{32, 8}, {64, 16}} {
		n, k := nk[0], nk[1]
		for _, far := range []int{8, 16} {
			cases = append(cases, tc{name: fmt.Sprintf("n%d-k%d-far%d", n, k, far), n: n, k: k,
				tree: func(b grid.Box) (*octree.Tree, error) { return sample.DefaultPolicy(b, far).Tree(grid.Cube(n)) }})
		}
		uniform := func(rate int) func(grid.Box) (*octree.Tree, error) {
			return func(grid.Box) (*octree.Tree, error) {
				return sample.Uniform{Rate: rate, CellSize: 8}.Tree(grid.Cube(n))
			}
		}
		cases = append(cases,
			tc{name: fmt.Sprintf("n%d-k%d-uniform4", n, k), n: n, k: k, tree: uniform(4)},
			tc{name: fmt.Sprintf("n%d-k%d-rate1", n, k), n: n, k: k, tree: uniform(1), bitwise: true})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.n == 64 && testing.Short() {
				t.Skip("64³ in -short")
			}
			results := boxResultsOn(t, c.n, c.k, c.tree)
			want := grid.NewField(grid.Cube(c.n))
			for _, r := range results {
				rec, err := r.Reconstruct()
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range rec.Data {
					want.Data[i] += v
				}
			}
			got, err := Accumulate(want.Dim, results)
			if err != nil {
				t.Fatal(err)
			}
			if c.bitwise {
				for i, w := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
						t.Fatalf("voxel %d is %v, the Reconstruct sum gives %v", i, got.Data[i], w)
					}
				}
				return
			}
			rel, err := grid.RelL2(got, want)
			if err != nil {
				t.Fatal(err)
			}
			worst, peak := 0.0, 0.0
			for i, w := range want.Data {
				worst, peak = max(worst, math.Abs(got.Data[i]-w)), max(peak, math.Abs(w))
			}
			t.Logf("relative L2 %.2g, max |Δ| / max |sum| %.2g", rel, worst/peak)
			if rel > 1e-14 || worst > 1e-14*peak {
				t.Errorf("relative L2 %g, max |Δ| %g of max |sum| %g: want ≤ 1e-14", rel, worst, peak)
			}
		})
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

// BenchmarkAccumulate is a solve's last step: (n/k)³ sub-domain results
// on far-rate-16 trees summed into the n³ field, at the solve-n64-k16 shape
// and at 128³/k32. Run with -cpu 1,2 to see the slab split; the bytes are
// the dense voxels every result covers.
func BenchmarkAccumulate(b *testing.B) {
	for _, nk := range [][2]int{{64, 16}, {128, 32}} {
		n, k := nk[0], nk[1]
		dim := grid.Cube(n)
		results := boxResults(b, n, k, 16)
		b.Run(fmt.Sprintf("n%d-k%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * dim.Len() * len(results)))
			for i := 0; i < b.N; i++ {
				if _, err := Accumulate(dim, results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
