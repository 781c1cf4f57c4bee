package fft_test

import (
	"math/rand"
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// BenchmarkLocalRunNoAVX512 is conv's BenchmarkLocalRun with the AVX-512
// dispatch off (fft.NoAVX512): on a CPU with AVX-512 it times the pipeline
// as a CPU with AVX alone runs it, for comparison with BenchmarkLocalRun at
// the same shapes — n128-k32 and n64-k16 warm pipelines, n64-k16-fresh a
// new pipeline per box of a shared plan set.
func BenchmarkLocalRunNoAVX512(b *testing.B) {
	kernel := green.Gaussian{Sigma: 2}
	randSub := func(k int) *grid.Field {
		rng := rand.New(rand.NewSource(1))
		f := grid.NewField(grid.Cube(k))
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		return f
	}
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
		in, out := randSub(k), sample.NewCompressed(tree)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := l.RunInto(in, out); err != nil {
				b.Fatal(err)
			}
		}
	}
	noAVX512 := func(f func(b *testing.B)) func(b *testing.B) {
		return func(b *testing.B) { fft.NoAVX512(func() { f(b) }) }
	}
	b.Run("n128-k32", noAVX512(func(b *testing.B) { warm(b, 128, 32) }))
	b.Run("n64-k16", noAVX512(func(b *testing.B) { warm(b, 64, 16) }))
	b.Run("n64-k16-fresh", noAVX512(func(b *testing.B) {
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
		in := randSub(k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l, err := ps.NewPolicyLocal(sample.DefaultPolicy(boxes[i%len(boxes)], 16), 1, pw, conv.Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := l.Run(in); err != nil {
				b.Fatal(err)
			}
			l.ReleaseBuffers()
		}
	}))
}
