package massif

import (
	"testing"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
)

func TestDistributedReferenceMatchesSerial(t *testing.T) {
	p0, p1 := steelAndSoft()
	n := 16
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0.003}
	opt := Options{Tol: 1e-6, MaxIter: 100}
	serial, err := SolveReference(m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		c, err := cluster.New(p, cluster.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		dist, err := SolveReferenceDistributed(c, m, E, opt)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if dist.Iterations != serial.Iterations || dist.Converged != serial.Converged {
			t.Errorf("P=%d: iters %d/%v vs serial %d/%v",
				p, dist.Iterations, dist.Converged, serial.Iterations, serial.Converged)
		}
		r, err := grid.RelL2Tensor(dist.Strain, serial.Strain)
		if err != nil {
			t.Fatal(err)
		}
		if r > 1e-10 {
			t.Errorf("P=%d: distributed reference differs from serial by %g", p, r)
		}
		// 12 slab transposes per iteration (2 directions × 6 components).
		_, _, colls, _ := c.Stats.Snapshot()
		if want := int64(12 * dist.Iterations); colls != want {
			t.Errorf("P=%d: %d collectives want %d", p, colls, want)
		}
	}
}

func TestDistributedReferenceVsLowCommComm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed comparison; skipped in -short")
	}
	// The head-to-head the paper argues: per-iteration fabric traffic of
	// Algorithm 1 (12 transposes) vs Algorithm 2 (1 sparse exchange).
	p0, p1 := steelAndSoft()
	n := 32
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{16, 16, 16}, 8, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	iters := 3
	opt := Options{Tol: 1e-12, MaxIter: iters} // fixed iteration budget

	cRef, _ := cluster.New(4, cluster.DefaultParams())
	if _, err := SolveReferenceDistributed(cRef, m, E, opt); err != nil {
		t.Fatal(err)
	}
	refBytes, _, refRounds, _ := cRef.Stats.Snapshot()

	cLow, _ := cluster.New(4, cluster.DefaultParams())
	if _, err := SolveLowCommDistributed(cLow, m, E, LowCommOptions{
		Options: opt, SubSize: 16, FarRate: 8,
	}); err != nil {
		t.Fatal(err)
	}
	lowBytes, _, lowRounds, _ := cLow.Stats.Snapshot()

	t.Logf("per %d iterations: Alg1 %d rounds / %d bytes; Alg2 %d rounds / %d bytes",
		iters, refRounds, refBytes, lowRounds, lowBytes)
	if lowRounds >= refRounds {
		t.Errorf("rounds: low-comm %d must be < reference %d", lowRounds, refRounds)
	}
	if lowBytes >= refBytes {
		t.Errorf("bytes: low-comm %d must be < reference %d at N=%d k=16", lowBytes, refBytes, n)
	}
}
