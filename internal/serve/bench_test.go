package serve

import (
	"context"
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/sample"
)

// BenchmarkServeSteadyState contrasts the engine's warm path (cached
// plans, pooled pipeline state, recycled arenas — the steady state of a
// long-running server) against the cold path that rebuilds the tree and
// pipeline per job. TestWarmSubmitZeroAllocs pins the warm case at zero
// allocations.
func BenchmarkServeSteadyState(b *testing.B) {
	dim := grid.Cube(32)
	box := grid.CubeAt(grid.Point{8, 8, 8}, 8)
	in := testField(8, 42)
	kernel := green.Gaussian{Sigma: 1.5}

	b.Run("warm", func(b *testing.B) {
		e, err := New(Options{
			Dim: dim, Kernel: kernel, FarRate: 8, Workers: 1,
			Device: gpu.V100_16GB(),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Drain()
		for i := 0; i < 3; i++ {
			res, err := e.Submit(context.Background(), "bench", box, in)
			if err != nil {
				b.Fatal(err)
			}
			res.Release()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Submit(context.Background(), "bench", box, in)
			if err != nil {
				b.Fatal(err)
			}
			res.Release()
		}
	})

	b.Run("cold", func(b *testing.B) {
		pw := conv.KernelPointwise(dim, kernel)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree, err := sample.DefaultPolicy(box, 8).Tree(dim)
			if err != nil {
				b.Fatal(err)
			}
			local, err := conv.NewLocal(dim, box, tree, pw, conv.Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := local.Run(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJobTraceOverhead is the warm serve path with per-job lifecycle
// tracing enabled — same shape as BenchmarkServeSteadyState/warm, plus a
// jobtrace collector. TestWarmSubmitZeroAllocs runs with the collector
// on, so it pins this path at zero too: the timeline (pooled jobs,
// bounded event rings, static labels) must not put an allocation back on
// the warm path.
func BenchmarkJobTraceOverhead(b *testing.B) {
	dim := grid.Cube(32)
	box := grid.CubeAt(grid.Point{8, 8, 8}, 8)
	in := testField(8, 42)
	e, err := New(Options{
		Dim: dim, Kernel: green.Gaussian{Sigma: 1.5}, FarRate: 8, Workers: 1,
		Device: gpu.V100_16GB(),
		Jobs:   jobtrace.NewCollector(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Drain()
	// Warm past the collector's ring of finished jobs (64): until it is
	// full every Start takes a fresh ~200 KB Job from the pool's New instead
	// of the one the ring displaces, and that fill is not the steady state
	// this benchmark names.
	for i := 0; i < 72; i++ {
		res, err := e.Submit(context.Background(), "bench", box, in)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Submit(context.Background(), "bench", box, in)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}
