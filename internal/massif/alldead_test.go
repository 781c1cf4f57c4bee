package massif

import (
	"errors"
	"testing"
	"time"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
)

// TestAllWorkersDeadTypedError kills every worker in a degrade-mode solve
// and checks the edge is reported as the typed sentinel: errors.Is
// matches ErrAllWorkersDead and errors.As still reaches the causal
// transport crash, via multi-error unwrapping.
func TestAllWorkersDeadTypedError(t *testing.T) {
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(8), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{2, 2, 2}, 1, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	inj := cluster.NewFaultInjector(cluster.FaultPlan{
		Seed: 1,
		Crashes: []cluster.CrashPoint{
			{Worker: 0, Op: 3},
			{Worker: 1, Op: 3},
		},
	})
	c, err := cluster.NewWithOptions(2, cluster.DefaultParams(), cluster.Options{
		RecvTimeout: 100 * time.Millisecond,
		RetryBudget: 3,
		Transport:   inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := LowCommOptions{
		Options: Options{Tol: 1e-4, MaxIter: 8},
		SubSize: 4, FarRate: 4,
	}
	_, solveErr := SolveLowCommDistributed(c, m, E, opt)
	if solveErr == nil {
		t.Fatal("all-dead solve returned nil error")
	}
	if !errors.Is(solveErr, ErrAllWorkersDead) {
		t.Errorf("errors.Is(err, ErrAllWorkersDead) = false for %v", solveErr)
	}
	var ce *cluster.CrashError
	if !errors.As(solveErr, &ce) {
		t.Errorf("errors.As(err, *cluster.CrashError) = false for %v", solveErr)
	}
	var ade *AllDeadError
	if !errors.As(solveErr, &ade) {
		t.Fatalf("errors.As(err, *AllDeadError) = false for %v", solveErr)
	} else if ade.Workers != 2 {
		t.Errorf("AllDeadError.Workers = %d, want 2", ade.Workers)
	}
}
