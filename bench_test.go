package lowcomm3d

// One benchmark per table and figure of the paper's evaluation (DESIGN.md
// §4), plus the ablation benches of DESIGN.md §5. Model-driven tables
// (1–4, §5.4) benchmark the model evaluation and log the regenerated rows;
// measured experiments run the real pure-Go pipelines.

import (
	"fmt"
	"math"
	"testing"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/massif"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/sample"
)

// smoothSub builds the smooth deterministic sub-domain input used across
// benches (≤1 cycle per edge, the MASSIF-like field class).
func smoothSub(k int) *grid.Field {
	f := grid.NewField(grid.Cube(k))
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				fx, fy, fz := float64(x)/float64(k), float64(y)/float64(k), float64(z)/float64(k)
				f.Set(x, y, z, math.Sin(2*math.Pi*fx)*math.Cos(math.Pi*fy)+0.5*math.Sin(math.Pi*fz))
			}
		}
	}
	return f
}

func BenchmarkTable1MemoryModel(b *testing.B) {
	var rows []gpu.Table1Row
	for i := 0; i < b.N; i++ {
		rows = gpu.Table1()
	}
	for _, r := range rows {
		b.Logf("N=%d k=%d traditional %.0f GB (paper %.0f) local %.0f GB (paper %.0f)",
			r.N, r.K, r.TraditionalGB, r.PaperTraditional, r.LocalGB, r.PaperLocal)
	}
}

func BenchmarkTable2AllowableK(b *testing.B) {
	var rows []gpu.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = gpu.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("N=%d allowable k=%d (paper %d) on %s", r.N, r.AllowableK, r.PaperK, r.Device)
	}
}

// BenchmarkTable3Speedup measures the real Go pipelines: the proposed
// local convolution vs the traditional dense baseline, at the largest
// sizes that run comfortably on a laptop. The table's absolute GPU numbers
// come from the calibrated model (cmd/paperbench -table 3); this bench
// demonstrates the algorithmic advantage for real.
func BenchmarkTable3Speedup(b *testing.B) {
	for _, n := range []int{64, 128} {
		k := n / 4
		dim := grid.Cube(n)
		sub := grid.CubeAt(grid.Point{(n - k) / 2, (n - k) / 2, (n - k) / 2}, k)
		kernel := green.Gaussian{Sigma: 2}
		tree, err := sample.DefaultPolicy(sub, 16).Tree(dim)
		if err != nil {
			b.Fatal(err)
		}
		local, err := conv.NewLocal(dim, sub, tree, conv.KernelPointwise(dim, kernel),
			conv.Config{})
		if err != nil {
			b.Fatal(err)
		}
		subField := smoothSub(k)
		b.Run(fmt.Sprintf("local/N%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := local.Run(subField); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("baseline/N%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := conv.BaselineSubdomain(dim, sub, subField, kernel, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable4GPUMemory(b *testing.B) {
	var rows []gpu.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = gpu.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("N=%d k=%d r=%d est %.2f GB (paper %.2f) actual %.2f GB (paper %.2f)",
			r.N, r.K, r.R, r.EstimatedGB, r.PaperEstimate, r.ActualGB, r.PaperActual)
	}
}

// BenchmarkFig1CommVolume runs the two distributed pipelines on the
// simulated cluster and reports measured rounds and bytes.
func BenchmarkFig1CommVolume(b *testing.B) {
	n, k, p := 64, 32, 4
	f := grid.NewField(grid.Cube(n))
	for i := range f.Data {
		f.Data[i] = float64(i%17) / 17
	}
	kernel := green.Gaussian{Sigma: 2}
	b.Run("traditional", func(b *testing.B) {
		var bytes, rounds int64
		for i := 0; i < b.N; i++ {
			c, err := cluster.New(p, cluster.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cluster.DistFFTConvolve(c, f, kernel); err != nil {
				b.Fatal(err)
			}
			bytes, _, rounds, _ = c.Stats.Snapshot()
		}
		b.Logf("rounds=%d bytes=%d", rounds, bytes)
	})
	b.Run("lowcomm", func(b *testing.B) {
		var bytes, rounds int64
		for i := 0; i < b.N; i++ {
			c, err := cluster.New(p, cluster.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cluster.LowCommConvolve(c, f, kernel, k, 16, conv.Config{}); err != nil {
				b.Fatal(err)
			}
			bytes, _, rounds, _ = c.Stats.Snapshot()
		}
		b.Logf("rounds=%d bytes=%d", rounds, bytes)
	})
}

// BenchmarkFig3Octree builds the Fig. 3 sampling octree (32³ sub-domain in
// a 128³ grid).
func BenchmarkFig3Octree(b *testing.B) {
	dim := grid.Cube(128)
	sub := grid.CubeAt(grid.Point{48, 48, 48}, 32)
	pol := sample.DefaultPolicy(sub, 16)
	var samples int
	for i := 0; i < b.N; i++ {
		tree, err := pol.Tree(dim)
		if err != nil {
			b.Fatal(err)
		}
		samples = tree.SampleCount()
	}
	b.Logf("samples=%d of %d (%.1fx compression)", samples, dim.Len(),
		float64(dim.Len())/float64(samples))
}

// BenchmarkSec54BatchB measures the real Go pipeline at different pencil
// batch sizes (the §5.4 parameter), alongside the calibrated GPU model.
func BenchmarkSec54BatchB(b *testing.B) {
	n, k := 64, 16
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{24, 24, 24}, k)
	kernel := green.Gaussian{Sigma: 2}
	tree, err := sample.DefaultPolicy(sub, 16).Tree(dim)
	if err != nil {
		b.Fatal(err)
	}
	subField := smoothSub(k)
	for _, batch := range []int{256, 1024, 4096} {
		local, err := conv.NewLocal(dim, sub, tree, conv.KernelPointwise(dim, kernel),
			conv.Config{BatchB: batch})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("B%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := local.Run(subField); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	rows, err := gpu.BatchStudy()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.Logf("model N=%d B %d→%d: %.1f%% (paper %.1f%%)", r.N, r.FromB, r.ToB, r.SpeedupPct, r.PaperPct)
	}
}

// BenchmarkAblationOctreeVsUniform compares reconstruction cost of the
// adaptive octree against uniform downsampling at a similar sample budget
// (DESIGN.md §5 ablation 2; the error comparison is TestAblation* in
// ablation_test.go).
func BenchmarkAblationOctreeVsUniform(b *testing.B) {
	dim := grid.Cube(64)
	sub := grid.CubeAt(grid.Point{24, 24, 24}, 16)
	f := grid.NewField(dim)
	for i := range f.Data {
		f.Data[i] = float64(i%31) / 31
	}
	adaptive, err := sample.DefaultPolicy(sub, 16).Tree(dim)
	if err != nil {
		b.Fatal(err)
	}
	uniform, err := sample.Uniform{Rate: 2, CellSize: 8}.Tree(dim)
	if err != nil {
		b.Fatal(err)
	}
	cAdaptive, err := sample.Compress(f, adaptive)
	if err != nil {
		b.Fatal(err)
	}
	cUniform, err := sample.Compress(f, uniform)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("sample budgets: adaptive %d, uniform %d", adaptive.SampleCount(), uniform.SampleCount())
	for _, tc := range []struct {
		name string
		c    *sample.Compressed
	}{
		{"adaptive", cAdaptive},
		{"uniform", cUniform},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.c.Reconstruct(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInterp compares trilinear vs nearest reconstruction
// (DESIGN.md §5 ablation 3).
func BenchmarkAblationInterp(b *testing.B) {
	dim := grid.Cube(64)
	tree, err := sample.Uniform{Rate: 4, CellSize: 8}.Tree(dim)
	if err != nil {
		b.Fatal(err)
	}
	f := grid.NewField(dim)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i) / 97)
	}
	c, err := sample.Compress(f, tree)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("trilinear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Reconstruct(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nearest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.NearestReconstruct(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMassifIteration compares the per-iteration cost of the solvers
// on a 16³ composite; distributed-p2 is a healthy two-worker
// SolveLowCommDistributed, which checkpoints every rank every iteration.
func BenchmarkMassifIteration(b *testing.B) {
	l1, m1 := green.LameFromENu(210, 0.3)
	l2, m2 := green.LameFromENu(70, 0.3)
	m, err := massif.NewMicrostructure(grid.Cube(16),
		massif.Phase{Lambda: l1, Mu: m1}, massif.Phase{Lambda: l2, Mu: m2})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		b.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := massif.SolveReference(m, E, massif.Options{Tol: 1e-12, MaxIter: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lowcomm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := massif.SolveLowComm(m, E, massif.LowCommOptions{
				Options: massif.Options{Tol: 1e-12, MaxIter: 3},
				SubSize: 8, FarRate: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("distributed-p2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := cluster.New(2, cluster.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			_, err = massif.SolveLowCommDistributed(c, m, E, massif.LowCommOptions{
				Options: massif.Options{Tol: 1e-12, MaxIter: 3},
				SubSize: 8, FarRate: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFFT1D tracks the core transform throughput.
func BenchmarkFFT1D(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		p := fft.MustPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i%7), float64(i%5))
		}
		y := make([]complex128, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				if err := p.Forward(y, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead quantifies the cost of the observability layer on
// the local pipeline: the same convolution with tracing off (nil trace,
// every span/counter call a no-op) and on. The traced run also reports the
// model-flop and sample-byte counters through ReportMetric so they print
// next to ns/op.
func BenchmarkObsOverhead(b *testing.B) {
	n, k := 64, 16
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{8, 8, 8}, k)
	kernel := green.Gaussian{Sigma: 2}
	tree, err := sample.DefaultPolicy(sub, 8).Tree(dim)
	if err != nil {
		b.Fatal(err)
	}
	subField := smoothSub(k)
	run := func(b *testing.B, cfg conv.Config) {
		local, err := conv.NewLocal(dim, sub, tree, conv.KernelPointwise(dim, kernel), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := local.Run(subField); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("untraced", func(b *testing.B) {
		run(b, conv.Config{})
	})
	b.Run("traced", func(b *testing.B) {
		tr := obs.New()
		run(b, conv.Config{Trace: tr})
		b.ReportMetric(float64(tr.CounterValue("conv.flops_model"))/float64(b.N), "model-flops/op")
		b.ReportMetric(float64(tr.CounterValue("conv.sample_bytes"))/float64(b.N), "sample-B/op")
	})
}
