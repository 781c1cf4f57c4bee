package massif

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/obs"
)

// mustCluster builds a p-worker cluster with the default α-β parameters.
func mustCluster(t *testing.T, p int, o cluster.Options) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewWithOptions(p, cluster.DefaultParams(), o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameBits fails unless got and want carry the same iteration outcome,
// residual history and strain, bit for bit.
func sameBits(t *testing.T, got, want *LowCommResult) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%d iterations, converged=%v; want %d, %v", got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for i, r := range want.Residuals {
		if math.Float64bits(got.Residuals[i]) != math.Float64bits(r) {
			t.Fatalf("residual %d: %v, want %v", i, got.Residuals[i], r)
		}
	}
	for v := range want.Strain.Comp {
		for i, x := range want.Strain.Comp[v].Data {
			if y := got.Strain.Comp[v].Data[i]; math.Float64bits(y) != math.Float64bits(x) {
				t.Fatalf("strain component %d voxel %d: %v, want %v", v, i, y, x)
			}
		}
	}
}

// TestDistributedSurvivesWorkerCrash is the acceptance test for the
// fault-tolerant solve with no options set: worker 3 crashes inside
// iteration 2's sparse all-to-all, the generation aborts, and every rank —
// the respawned one included — resumes from its iteration-2 checkpoint in
// a store held in memory. No arithmetic changes, so the result is the
// healthy solve's, bit for bit.
func TestDistributedSurvivesWorkerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed solve; skipped in -short")
	}
	m, E := chaosMicro(t, 16)
	// Full-resolution sampling so the fixed point genuinely converges at
	// this tolerance (coarse far-field rates floor the residual above it
	// for an inclusion this small, healthy or not).
	opt := LowCommOptions{
		Options: Options{Tol: 1e-4, MaxIter: 40},
		SubSize: 8, FullRes: true,
	}
	healthy, err := SolveLowCommDistributed(mustCluster(t, 4, cluster.Options{}), m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Iterations < 3 {
		t.Fatalf("healthy solve converged in %d iterations; crash at iteration 2 never fires", healthy.Iterations)
	}

	// Each solver iteration is two top-level ops (all-to-all, all-reduce),
	// so op 5 is the all-to-all of 0-based iteration 2.
	inj := cluster.NewFaultInjector(cluster.FaultPlan{Seed: 1, Crashes: []cluster.CrashPoint{{Worker: 3, Op: 5}}})
	c := mustCluster(t, 4, cluster.Options{
		RecvTimeout: 100 * time.Millisecond,
		RetryBudget: 3,
		Transport:   inj,
	})
	dist, err := healSolve(t, c, m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	h := dist.Heal
	if !slices.Equal(h.Respawned, []int{3}) || h.Generations != 2 {
		t.Fatalf("respawned %v in %d generations, want [3] in 2", h.Respawned, h.Generations)
	}
	if h.Respawns < 1 || h.CheckpointBytes <= 0 {
		t.Errorf("heal report reads respawns=%d checkpoint bytes=%d with no trace, want both > 0", h.Respawns, h.CheckpointBytes)
	}
	if !dist.Converged {
		t.Fatalf("healed solve did not converge (residuals %v)", dist.Residuals)
	}
	sameBits(t, dist, healthy)
	if fs := c.Stats.FaultSnapshot(); fs.DeadWorkers == 0 {
		t.Errorf("fault stats recorded no dead workers: %+v", fs)
	}
}

// TestDistributedGivesUpOnStickyCrash: a worker that dies again in every
// generation exhausts the 2P+2 respawn rounds, and the solve returns an
// error that reaches the worker's crash instead of hanging.
func TestDistributedGivesUpOnStickyCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed solve; skipped in -short")
	}
	m, E := chaosMicro(t, 16)
	const p = 4
	inj := cluster.NewFaultInjector(cluster.FaultPlan{Seed: 1, CrashWorker: 3, CrashAtOp: 5})
	tr := obs.New()
	_, err := healSolve(t, mustCluster(t, p, cluster.Options{
		RecvTimeout: 100 * time.Millisecond,
		RetryBudget: 3,
		Transport:   inj,
	}), m, E, LowCommOptions{
		Options: Options{Tol: 1e-4, MaxIter: 40, Trace: tr},
		SubSize: 8, FullRes: true,
	})
	var ce *cluster.CrashError
	if !errors.As(err, &ce) || ce.Worker != 3 {
		t.Fatalf("sticky crash returned %v, want an error wrapping worker 3's *cluster.CrashError", err)
	}
	if got := tr.CounterValue("heal.generations"); got != 2*p+2 {
		t.Errorf("%d generations run, want 2P+2 = %d", got, 2*p+2)
	}
}
