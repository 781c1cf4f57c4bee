package massif

import (
	"testing"
	"time"

	"lowcomm3d/internal/ckpt"
	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/supervise"
)

// BenchmarkRespawnRecovery measures a full healing solve with one
// injected crash per run: the cost of crash detection, the generation
// restart, and the checkpoint restore, on the standard small problem.
// respawn-latency-ns is the supervision layer's detection→first-beat
// measurement, the headline recovery-time metric.
func BenchmarkRespawnRecovery(b *testing.B) {
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(16), p0, p1)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{4, 4, 4}, 2, 1); err != nil {
		b.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0.002}
	opt := LowCommOptions{
		Options: Options{Tol: 1e-4, MaxIter: 5},
		SubSize: 8, FarRate: 4,
	}
	var respawns, latencyNS, generations int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := ckpt.NewStore(b.TempDir(), obs.New())
		if err != nil {
			b.Fatal(err)
		}
		inj := cluster.NewFaultInjector(cluster.FaultPlan{
			Seed:    int64(i + 1),
			Crashes: []cluster.CrashPoint{{Worker: 1, Op: 3}},
		})
		c, err := cluster.NewWithOptions(2, cluster.DefaultParams(), cluster.Options{
			RecvTimeout: 50 * time.Millisecond,
			RetryBudget: 4,
			Transport:   inj,
		})
		if err != nil {
			b.Fatal(err)
		}
		hopt := opt
		hopt.Heal = &HealOptions{
			Store:     store,
			Supervise: supervise.Options{Trace: obs.New()},
		}
		b.StartTimer()
		res, err := SolveLowCommDistributed(c, m, E, hopt)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if res.Heal == nil || res.Heal.Respawns < 1 {
			b.Fatalf("run %d: no respawn recorded", i)
		}
		respawns += res.Heal.Respawns
		latencyNS += res.Heal.RespawnLatency.Nanoseconds()
		generations += int64(res.Heal.Generations)
		b.StartTimer()
	}
	b.ReportMetric(float64(respawns)/float64(b.N), "respawns/op")
	b.ReportMetric(float64(latencyNS)/float64(respawns), "respawn-latency-ns")
	b.ReportMetric(float64(generations)/float64(b.N), "generations/op")
}
