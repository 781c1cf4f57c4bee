package cluster

import (
	"errors"
	"testing"
	"time"
)

// TestResetEpochClearsDeathAndState: a generation that loses a worker to
// an injected crash can be reset and rerun; the replacement generation
// sees a clean dead set, fresh sequence numbers, and no stale mail.
func TestResetEpochClearsDeathAndState(t *testing.T) {
	inj := NewFaultInjector(FaultPlan{
		Seed:    1,
		Crashes: []CrashPoint{{Worker: 1, Op: 1}},
	})
	c, err := NewWithOptions(3, DefaultParams(), Options{
		Transport:   inj,
		RecvTimeout: 10 * time.Millisecond,
		RetryBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	exchange := func(w *Worker) error {
		out := make([][]float64, c.P)
		for i := range out {
			out[i] = []float64{float64(w.ID)}
		}
		in, missing, err := w.AllToAllFT(out)
		if err != nil {
			return err
		}
		for from, buf := range in {
			if buf != nil && buf[0] != float64(from) {
				t.Errorf("worker %d got %v from %d", w.ID, buf, from)
			}
		}
		_ = missing
		return nil
	}

	errs := c.RunAll(exchange)
	var ce *CrashError
	if !errors.As(errs[1], &ce) {
		t.Fatalf("generation 1: worker 1 error = %v, want CrashError", errs[1])
	}
	if len(c.DeadWorkers()) == 0 {
		t.Fatal("generation 1: no worker declared dead after crash")
	}

	c.ResetEpoch()
	if got := c.DeadWorkers(); len(got) != 0 {
		t.Fatalf("dead set %v survived ResetEpoch", got)
	}
	if e := c.epoch.Load(); e != 1 {
		t.Fatalf("epoch = %d after one reset, want 1", e)
	}

	// Generation 2: the one-shot crash point is consumed, so the
	// replacement worker 1 completes a clean exchange.
	for _, err := range c.RunAll(exchange) {
		if err != nil {
			t.Fatalf("generation 2 errored after respawn: %v", err)
		}
	}
}

// TestStaleEpochDeliveriesDiscarded pins the generation boundary: a
// delay-injected message sent before ResetEpoch must not satisfy a
// receive issued after it.
func TestStaleEpochDeliveriesDiscarded(t *testing.T) {
	c, err := NewWithOptions(2, DefaultParams(), Options{
		RecvTimeout: 15 * time.Millisecond,
		RetryBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-deliver a stale-epoch message into 1's mailbox from 0, as a
	// delayed transport callback from the old generation would.
	stale := message{seq: 1, payload: []float64{99}, sum: checksum([]float64{99}), epoch: 0}
	c.ResetEpoch() // epoch is now 1; the stale message claims 0
	c.boxes[1][0] <- stale

	err = c.Run(func(w *Worker) error {
		if w.ID != 1 {
			return nil
		}
		_, rerr := w.Recv(0) // nothing valid ever arrives
		return rerr
	})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("recv of stale-epoch message: err = %v, want FaultError deadline", err)
	}
}

// TestOneShotCrashFiresOnce: the same injector consulted across the op
// range fires each listed crash point exactly once.
func TestOneShotCrashFiresOnce(t *testing.T) {
	inj := NewFaultInjector(FaultPlan{Crashes: []CrashPoint{{Worker: 2, Op: 3}}})
	fired := 0
	for op := 1; op <= 10; op++ {
		if inj.Crash(2, op) {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("one-shot crash point fired %d times, want 1", fired)
	}
	if inj.Crash(1, 3) {
		t.Error("crash point fired for the wrong worker")
	}
	// Legacy sticky semantics unchanged.
	sticky := NewFaultInjector(FaultPlan{CrashWorker: 0, CrashAtOp: 2})
	if !sticky.Crash(0, 2) || !sticky.Crash(0, 5) {
		t.Error("legacy CrashAtOp no longer sticky")
	}
}
