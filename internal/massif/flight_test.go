package massif

import (
	"strings"
	"testing"
	"time"

	"lowcomm3d/internal/ckpt"
	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/supervise"
	"lowcomm3d/internal/telemetry"
)

// TestSelfHealingFlightRecorderPostmortem is the acceptance test for the
// flight recorder: a P=4 healing solve with an injected worker crash must
// leave a postmortem that names the crashed rank, its last heartbeat, and
// its last completed collective. Run under -race this also exercises
// concurrent recorder writes from four worker goroutines plus the
// supervision monitor during a live heal.
func TestSelfHealingFlightRecorderPostmortem(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed solve; skipped in -short")
	}
	m, E := chaosMicro(t, 16)
	const p = 4
	const crashRank = 2
	flight := telemetry.NewRecorder(p, 0)

	store, err := ckpt.NewStore(t.TempDir(), obs.New())
	if err != nil {
		t.Fatal(err)
	}
	// Op 5 is iteration 2's all-to-all: by then rank 2 has completed
	// collectives and beaten heartbeats, so the postmortem has real
	// "last ..." entries to report.
	inj := cluster.NewFaultInjector(cluster.FaultPlan{Seed: 7, Crashes: []cluster.CrashPoint{{Worker: crashRank, Op: 5}}})
	c, err := cluster.NewWithOptions(p, cluster.DefaultParams(), cluster.Options{
		RecvTimeout: 50 * time.Millisecond,
		RetryBudget: 4,
		Transport:   inj,
		Flight:      flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := LowCommOptions{
		Options: Options{Tol: 1e-4, MaxIter: 40},
		SubSize: 8, FullRes: true,
		Heal: &HealOptions{
			Store:     store,
			Flight:    flight,
			Supervise: supervise.Options{Trace: obs.New()},
		},
	}
	res, solveErr := healSolve(t, c, m, E, opt)
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if !res.Converged {
		t.Fatalf("healed solve did not converge (residuals %v)", res.Residuals)
	}

	sum := flight.Summary()
	if len(sum) != p {
		t.Fatalf("summary covers %d ranks, want %d", len(sum), p)
	}
	s := sum[crashRank]
	if s.Crash == nil {
		t.Fatalf("rank %d recorded no crash event", crashRank)
	}
	if s.Crash.Op == "" {
		t.Errorf("crash event has no site: %+v", s.Crash)
	}
	if s.LastHeartbeat == nil {
		t.Errorf("rank %d has no last heartbeat", crashRank)
	}
	if s.LastCollective == nil {
		t.Errorf("rank %d has no last completed collective", crashRank)
	} else if s.LastCollective.Bytes <= 0 {
		t.Errorf("last collective carries no bytes: %+v", s.LastCollective)
	}

	var b strings.Builder
	if err := flight.WritePostmortem(&b); err != nil {
		t.Fatal(err)
	}
	post := b.String()
	for _, want := range []string{
		"FLIGHT RECORDER POSTMORTEM — 4 ranks",
		"rank 2: CRASHED",
		"last heartbeat:  iter=",
		"last collective: ",
	} {
		if !strings.Contains(post, want) {
			t.Fatalf("postmortem missing %q:\n%s", want, post)
		}
	}
	// The crashed rank's section must report a real collective and
	// heartbeat, not the "—" placeholder for no data.
	rank2 := post[strings.Index(post, "rank 2:"):]
	rank2 = rank2[:strings.Index(rank2, "rank 3:")]
	if strings.Contains(rank2, "last collective: —") {
		t.Errorf("rank 2 postmortem has no completed collective:\n%s", rank2)
	}
	if strings.Contains(rank2, "last heartbeat:  —") {
		t.Errorf("rank 2 postmortem has no heartbeat:\n%s", rank2)
	}
}
