package fft_test

import (
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// BenchmarkLocalRunDispatch is conv's BenchmarkLocalRun under each dispatch
// this CPU has (fft.Dispatches), at the same shapes — n128-k32, n64-k16 and
// n32-k8 warm pipelines, n64-k16-fresh a new pipeline per box of a shared
// plan set, run on one conv.Runner. avx512-tile is BenchmarkLocalRun itself on a CPU with AVX-512;
// avx-tile times the pipeline as a CPU with AVX alone runs it, avx-lines
// with every tile on the line path (as for an N that is not a power of
// two), and go-loops as off amd64. Compare each with the parent's in
// alternated pairs.
func BenchmarkLocalRunDispatch(b *testing.B) {
	kernel := green.Gaussian{Sigma: 2}
	warm := func(b *testing.B, n, k int) {
		dim := grid.Cube(n)
		lo := (n - k) / 2
		sub := grid.CubeAt(grid.Point{lo, lo, lo}, k)
		tree, err := sample.DefaultPolicy(sub, 16).Tree(dim)
		if err != nil {
			b.Fatal(err)
		}
		l, err := conv.NewLocal(dim, sub, tree, conv.KernelPointwise(dim, kernel), conv.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		in, out := randField(k, 1), sample.NewCompressed(tree)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := l.RunInto(in, out); err != nil {
				b.Fatal(err)
			}
		}
	}
	fresh := func(b *testing.B) {
		const n, k = 64, 16
		dim := grid.Cube(n)
		boxes, err := grid.Decompose(dim, k)
		if err != nil {
			b.Fatal(err)
		}
		ps, err := conv.NewPlanSet(dim, 1)
		if err != nil {
			b.Fatal(err)
		}
		pw := conv.KernelPointwise(dim, kernel)
		in, r := []*grid.Field{randField(k, 1)}, ps.NewRunner()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l, err := ps.NewPolicyLocal(sample.DefaultPolicy(boxes[i%len(boxes)], 16), 1, pw, conv.Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Run(l, in, make([]*sample.Compressed, 1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, d := range fft.Dispatches() {
		under := func(f func(b *testing.B)) func(b *testing.B) {
			return func(b *testing.B) { d.Run(func() { f(b) }) }
		}
		b.Run(d.Name+"/n128-k32", under(func(b *testing.B) { warm(b, 128, 32) }))
		b.Run(d.Name+"/n64-k16", under(func(b *testing.B) { warm(b, 64, 16) }))
		b.Run(d.Name+"/n64-k16-fresh", under(fresh))
		b.Run(d.Name+"/n32-k8", under(func(b *testing.B) { warm(b, 32, 8) }))
	}
}
