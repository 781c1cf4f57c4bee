package massif

import (
	"testing"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
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
