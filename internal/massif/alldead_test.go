package massif

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
)

// TestAllWorkersDeadTypedError kills every worker inside iteration 1's
// all-to-all. No rank survives the generation, yet each one checkpointed
// iteration 1, so the solve respawns both and finishes with the healthy
// solve's bits.
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
	opt := LowCommOptions{
		Options: Options{Tol: 1e-4, MaxIter: 8},
		SubSize: 4, FarRate: 4,
	}
	healthy, err := SolveLowCommDistributed(mustCluster(t, 2, cluster.Options{}), m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Iterations < 2 {
		t.Fatalf("healthy solve stopped after %d iterations; the crashes never fire", healthy.Iterations)
	}
	inj := cluster.NewFaultInjector(cluster.FaultPlan{
		Seed: 1,
		Crashes: []cluster.CrashPoint{
			{Worker: 0, Op: 3},
			{Worker: 1, Op: 3},
		},
	})
	res, err := healSolve(t, mustCluster(t, 2, cluster.Options{
		RecvTimeout: 100 * time.Millisecond,
		RetryBudget: 3,
		Transport:   inj,
	}), m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Heal.Respawned, []int{0, 1}) || res.Heal.Generations != 2 {
		t.Errorf("respawned %v in %d generations, want [0 1] in 2", res.Heal.Respawned, res.Heal.Generations)
	}
	sameBits(t, res, healthy)
}

// TestHealedSolveIsHealthyOrGivesUp runs TestAllWorkersDeadTypedError's
// problem under forty seeded schedules that delay messages past a short
// receive deadline on top of both crashes, so generations abort with the
// ranks checkpointed at different iterations. Every healed solve must
// resume all ranks from one iteration and return the healthy bits; a solve
// that cannot heal must say so with the typed give-up error. Which of the
// two a seed gets depends on timing; that it is one of them does not.
func TestHealedSolveIsHealthyOrGivesUp(t *testing.T) {
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(8), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{2, 2, 2}, 1, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	opt := LowCommOptions{
		Options: Options{Tol: 1e-4, MaxIter: 8},
		SubSize: 4, FarRate: 4,
	}
	healthy, err := SolveLowCommDistributed(mustCluster(t, 2, cluster.Options{}), m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	healed := 0
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := cluster.NewFaultInjector(cluster.FaultPlan{
				Seed:      seed,
				DelayProb: 0.3,
				Delay:     6 * time.Millisecond,
				Crashes:   []cluster.CrashPoint{{Worker: 0, Op: 3}, {Worker: 1, Op: 3}},
			})
			res, err := healSolve(t, mustCluster(t, 2, cluster.Options{
				RecvTimeout: 2 * time.Millisecond,
				RetryBudget: 1,
				Transport:   inj,
			}), m, E, opt)
			if err != nil {
				if !strings.Contains(err.Error(), "gave up after 6 generations") {
					t.Fatalf("neither healed nor gave up: %v", err)
				}
				return
			}
			healed++
			sameBits(t, res, healthy)
		})
	}
	t.Logf("%d of 40 seeds healed, the rest gave up", healed)
}
