package conv

import (
	"testing"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// BenchmarkLocalRun times one conv.Local run on one worker at the shapes of
// the end-to-end workloads, with the Gaussian σ = 2 kernel and far rate 16
// they use: n128-k32 is a warm pipeline on the centre box, as in
// local-n128-k32; n64-k16 a warm pipeline on one box of solve-n64-k16; and
// n64-k16-fresh places a new pipeline per box from a shared plan set (and
// its memoized sampling geometry), runs it and releases its buffer, walking
// all 64 boxes as a solve's tasks do.
func BenchmarkLocalRun(b *testing.B) {
	kernel := green.Gaussian{Sigma: 2}
	warm := func(b *testing.B, n, k int) {
		dim := grid.Cube(n)
		lo := (n - k) / 2
		sub := grid.CubeAt(grid.Point{lo, lo, lo}, k)
		tree, err := sample.DefaultPolicy(sub, 16).Tree(dim)
		if err != nil {
			b.Fatal(err)
		}
		l, err := NewLocal(dim, sub, tree, KernelPointwise(dim, kernel), Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		in := randSub(k, 1)
		out := sample.NewCompressed(tree)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := l.RunInto(in, out); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("n128-k32", func(b *testing.B) { warm(b, 128, 32) })
	b.Run("n64-k16", func(b *testing.B) { warm(b, 64, 16) })
	b.Run("n64-k16-fresh", func(b *testing.B) {
		const n, k = 64, 16
		dim := grid.Cube(n)
		boxes, err := grid.Decompose(dim, k)
		if err != nil {
			b.Fatal(err)
		}
		ps, err := NewPlanSet(dim, 1)
		if err != nil {
			b.Fatal(err)
		}
		pw := KernelPointwise(dim, kernel)
		in := randSub(k, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l, err := ps.NewPolicyLocal(sample.DefaultPolicy(boxes[i%len(boxes)], 16), pw, Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := l.Run(in); err != nil {
				b.Fatal(err)
			}
			l.ReleaseBuffers()
		}
	})
}
