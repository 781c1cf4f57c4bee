package massif

import (
	"math"
	"testing"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
)

func TestDistributedMatchesSerialLowComm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed solve; skipped in -short")
	}
	p0, p1 := steelAndSoft()
	n := 16
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0.002}
	opt := LowCommOptions{
		Options: Options{Tol: 1e-4, MaxIter: 40},
		SubSize: 8, FarRate: 8,
	}
	serial, err := SolveLowComm(m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		c, err := cluster.New(p, cluster.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		dist, err := SolveLowCommDistributed(c, m, E, opt)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if dist.Iterations != serial.Iterations {
			t.Errorf("P=%d: iterations %d vs serial %d", p, dist.Iterations, serial.Iterations)
		}
		r, err := grid.RelL2Tensor(dist.Strain, serial.Strain)
		if err != nil {
			t.Fatal(err)
		}
		if r > 1e-9 {
			t.Errorf("P=%d: distributed strain differs from serial by %g", p, r)
		}
		// One sparse all-to-all per iteration, nothing else collective.
		_, _, colls, _ := c.Stats.Snapshot()
		if int(colls) != dist.Iterations {
			t.Errorf("P=%d: %d collectives for %d iterations", p, colls, dist.Iterations)
		}
		if dist.Comm.BytesPerIter <= 0 || dist.Comm.SamplesPerIter <= 0 {
			t.Errorf("P=%d: comm accounting missing: %+v", p, dist.Comm)
		}
	}
}

func TestDistributedFullResMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed solve; skipped in -short")
	}
	// Rate-1 sampling on the cluster must reproduce the traditional
	// solver: the complete distributed pipeline is exact end to end.
	p0, p1 := steelAndSoft()
	n := 16
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	opt := Options{Tol: 1e-6, MaxIter: 100}
	ref, err := SolveReference(m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(4, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SolveLowCommDistributed(c, m, E, LowCommOptions{
		Options: opt, SubSize: 8, FullRes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dist.Converged {
		t.Fatalf("distributed full-res did not converge (residual %g)",
			dist.Residuals[len(dist.Residuals)-1])
	}
	r, err := grid.RelL2Tensor(dist.Strain, ref.Strain)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-5 {
		t.Errorf("distributed full-res differs from reference by %g", r)
	}
}

func TestDistributedSingleWorkerDegenerate(t *testing.T) {
	p0, _ := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(8), p0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(1, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	res, err := SolveLowCommDistributed(c, m, E, LowCommOptions{
		Options: Options{Tol: 1e-8, MaxIter: 10}, SubSize: 4, FullRes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Homogeneous: exact in one iteration even distributed.
	if !res.Converged || res.Iterations != 1 {
		t.Errorf("homogeneous distributed: converged=%v iters=%d", res.Converged, res.Iterations)
	}
}

func TestDistributedErrors(t *testing.T) {
	p0, _ := steelAndSoft()
	m, _ := NewMicrostructure(grid.Cube(8), p0)
	c, _ := cluster.New(2, cluster.DefaultParams())
	if _, err := SolveLowCommDistributed(c, m, grid.SymTensor{}, LowCommOptions{SubSize: 4}); err == nil {
		t.Error("zero strain should fail")
	}
	if _, err := SolveLowCommDistributed(c, m, grid.SymTensor{0.01, 0, 0, 0, 0, 0}, LowCommOptions{SubSize: 3}); err == nil {
		t.Error("bad sub size should fail")
	}
}

// TestLowCommIsDistributedOnOneRank: SolveLowComm is the distributed loop on
// one rank, so a one-worker cluster must reproduce it bit for bit — strain,
// residual history and accounting — and report a healthy fault record.
func TestLowCommIsDistributedOnOneRank(t *testing.T) {
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(16), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0.002}
	opt := LowCommOptions{
		Options: Options{MaxIter: 4, Workers: 2},
		SubSize: 8, FarRate: 8,
	}
	serial, err := SolveLowComm(m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(1, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SolveLowCommDistributed(c, m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Iterations != serial.Iterations || dist.Converged != serial.Converged || dist.Comm != serial.Comm {
		t.Fatalf("one-rank distributed %d/%v %+v, serial %d/%v %+v",
			dist.Iterations, dist.Converged, dist.Comm, serial.Iterations, serial.Converged, serial.Comm)
	}
	for i, r := range serial.Residuals {
		if math.Float64bits(dist.Residuals[i]) != math.Float64bits(r) {
			t.Fatalf("residual %d: %v, serial %v", i, dist.Residuals[i], r)
		}
	}
	for v := range serial.Strain.Comp {
		for i, want := range serial.Strain.Comp[v].Data {
			if got := dist.Strain.Comp[v].Data[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("strain component %d voxel %d: %v, serial %v", v, i, got, want)
			}
		}
	}
}

// TestDistributedRecordsIterations: every solver runs the one loop, so
// every one records the same observability — one massif.iteration span and
// iteration_seconds sample per iteration and the massif.iterations counter
// on rank 0 — and the sampled solves add every rank's samples and bytes.
func TestDistributedRecordsIterations(t *testing.T) {
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(16), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	low := func(opt Options) LowCommOptions { return LowCommOptions{Options: opt, SubSize: 8, FarRate: 8} }
	two := func() *cluster.Cluster {
		c, err := cluster.New(2, cluster.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, c := range []struct {
		name  string
		solve func(Options) (*Result, *LowCommStats, error)
	}{
		{"SolveReference", func(o Options) (*Result, *LowCommStats, error) {
			r, err := SolveReference(m, E, o)
			return r, nil, err
		}},
		{"SolveAccelerated", func(o Options) (*Result, *LowCommStats, error) {
			r, err := SolveAccelerated(m, E, o)
			return r, nil, err
		}},
		{"SolveReferenceDistributed", func(o Options) (*Result, *LowCommStats, error) {
			r, err := SolveReferenceDistributed(two(), m, E, o)
			return r, nil, err
		}},
		{"SolveLowComm", func(o Options) (*Result, *LowCommStats, error) {
			r, err := SolveLowComm(m, E, low(o))
			if err != nil {
				return nil, nil, err
			}
			return &r.Result, &r.Comm, nil
		}},
		{"SolveLowCommDistributed", func(o Options) (*Result, *LowCommStats, error) {
			r, err := SolveLowCommDistributed(two(), m, E, low(o))
			if err != nil {
				return nil, nil, err
			}
			return &r.Result, &r.Comm, nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := obs.New()
			res, comm, err := c.solve(Options{Tol: 1e-12, MaxIter: 3, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			it := int64(res.Iterations)
			if it != 3 {
				t.Fatalf("%d iterations, want MaxIter = 3", it)
			}
			if got := tr.CounterValue("massif.iterations"); got != it {
				t.Errorf("massif.iterations = %d, want Iterations = %d", got, it)
			}
			if got := tr.Histogram("massif.iteration_seconds").Snapshot("").Count; got != it {
				t.Errorf("massif.iteration_seconds count = %d, want %d", got, it)
			}
			spans := int64(0)
			for _, sp := range tr.Spans() {
				if sp.Name == "massif.iteration" {
					spans++
				}
			}
			if spans != it {
				t.Errorf("%d massif.iteration spans, want %d", spans, it)
			}
			if comm == nil {
				return
			}
			if got, want := tr.CounterValue("massif.samples"), it*int64(comm.SamplesPerIter); got != want {
				t.Errorf("massif.samples = %d, want iterations × SamplesPerIter = %d", got, want)
			}
			if got, want := tr.CounterValue("massif.sample_bytes"), it*int64(comm.BytesPerIter); got != want {
				t.Errorf("massif.sample_bytes = %d, want iterations × BytesPerIter = %d", got, want)
			}
		})
	}
}

// TestSampledIterationBeatsDenseTransposes: one sampled iteration at
// 32³/k8, far rate 8, on four ranks moves fewer fabric bytes (cluster.Stats,
// every collective) than the dense scheme's four transposes of the six real
// components, 8·N³·6·4 = 6 MiB. The exchange sends each peer the values
// its boxes read, each once, and no cell headers.
func TestSampledIterationBeatsDenseTransposes(t *testing.T) {
	const n = 32
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{n / 2, n / 2, n / 2}, n/4, 1); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(4, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveLowCommDistributed(c, m, grid.SymTensor{0.01}, LowCommOptions{
		Options: Options{Tol: 1e-12, MaxIter: 1}, SubSize: 8, FarRate: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	bytes, _, _, _ := c.Stats.Snapshot()
	dense := int64(8 * n * n * n * grid.NumVoigt * 4)
	t.Logf("%d iteration(s): %d fabric bytes, dense transposes %d per iteration", res.Iterations, bytes, dense)
	if res.Iterations != 1 || bytes >= dense {
		t.Errorf("%d iteration(s) moved %d fabric bytes, want one under the dense transposes' %d", res.Iterations, bytes, dense)
	}
}
