package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

// faultyOptions keeps retry deadlines short so injected drops resolve in
// milliseconds instead of the production 2s default.
func faultyOptions(tr Transport) Options {
	return Options{RecvTimeout: 10 * time.Millisecond, RetryBudget: 4, Transport: tr}
}

// withWatchdog fails the test if fn does not complete within d — the
// no-deadlock guarantee of the fault matrix.
func withWatchdog(t *testing.T, name string, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s: deadlock — did not complete within %v", name, d)
		return nil
	}
}

func isTypedFault(err error) bool {
	var fe *FaultError
	var ce *CrashError
	return errors.As(err, &fe) || errors.As(err, &ce)
}

// faultMatrixOp runs one collective pattern on a cluster and returns a
// deterministic digest of every worker's view, so a healed faulty run can
// be compared bit-for-bit against the reliable reference.
type faultMatrixOp struct {
	name string
	run  func(c *Cluster, p int) ([]float64, error)
}

var faultMatrixOps = []faultMatrixOp{
	{"send-recv-ring", func(c *Cluster, p int) ([]float64, error) {
		digest := make([]float64, p)
		err := c.Run(func(w *Worker) error {
			if err := w.Send((w.ID+1)%p, []float64{float64(w.ID), float64(w.ID * w.ID)}); err != nil {
				return err
			}
			got, err := w.Recv((w.ID + p - 1) % p)
			if err != nil {
				return err
			}
			digest[w.ID] = got[0] + got[1]/128
			return nil
		})
		return digest, err
	}},
	{"all-to-all", func(c *Cluster, p int) ([]float64, error) {
		digest := make([]float64, p*p)
		err := c.Run(func(w *Worker) error {
			out := make([][]float64, p)
			for q := 0; q < p; q++ {
				out[q] = []float64{float64(w.ID*10 + q), float64(w.ID)}
			}
			in, err := w.AllToAll(out)
			if err != nil {
				return err
			}
			for q := 0; q < p; q++ {
				digest[w.ID*p+q] = in[q][0] + in[q][1]/128
			}
			return nil
		})
		return digest, err
	}},
	{"broadcast", func(c *Cluster, p int) ([]float64, error) {
		digest := make([]float64, p)
		err := c.Run(func(w *Worker) error {
			got, err := w.Broadcast(0, []float64{3.5, 7.25, -1})
			if err != nil {
				return err
			}
			digest[w.ID] = got[0] + got[1] + got[2]
			return nil
		})
		return digest, err
	}},
	{"all-reduce", func(c *Cluster, p int) ([]float64, error) {
		digest := make([]float64, p)
		err := c.Run(func(w *Worker) error {
			total, err := w.AllReduceSum([]float64{float64(w.ID + 1), float64(w.ID * 2)})
			if err != nil {
				return err
			}
			digest[w.ID] = total[0] + total[1]/128
			return nil
		})
		return digest, err
	}},
}

// TestFaultMatrix sweeps every fault class across every collective op with
// a deterministic seed sweep (≥ 50 schedules). The contract under test:
// every run either completes with results bit-identical to the reliable
// reference (the fault healed through checksum + retry) or returns a typed
// FaultError/CrashError — never a deadlock, never silently corrupted data.
func TestFaultMatrix(t *testing.T) {
	const p = 4
	classes := []struct {
		name       string
		plan       func(seed int64) FaultPlan
		alwaysHeal bool // class cannot lose data, so err must be nil
	}{
		{"drop", func(s int64) FaultPlan { return FaultPlan{Seed: s, DropProb: 0.3} }, false},
		{"delay", func(s int64) FaultPlan {
			return FaultPlan{Seed: s, DelayProb: 0.5, Delay: 2 * time.Millisecond}
		}, false},
		{"dup", func(s int64) FaultPlan { return FaultPlan{Seed: s, DupProb: 0.6} }, true},
		{"corrupt", func(s int64) FaultPlan { return FaultPlan{Seed: s, CorruptProb: 0.3} }, false},
		{"crash", func(s int64) FaultPlan {
			return FaultPlan{Seed: s, CrashWorker: 2, CrashAtOp: 1}
		}, false},
	}
	schedules := 0
	for _, class := range classes {
		for _, op := range faultMatrixOps {
			for seed := int64(1); seed <= 3; seed++ {
				schedules++
				name := fmt.Sprintf("%s/%s/seed%d", class.name, op.name, seed)
				t.Run(name, func(t *testing.T) {
					ref, _ := New(p, DefaultParams())
					want, err := op.run(ref, p)
					if err != nil {
						t.Fatalf("reliable reference failed: %v", err)
					}
					inj := NewFaultInjector(class.plan(seed))
					c, err := NewWithOptions(p, DefaultParams(), faultyOptions(inj))
					if err != nil {
						t.Fatal(err)
					}
					var got []float64
					runErr := withWatchdog(t, name, 20*time.Second, func() error {
						var e error
						got, e = op.run(c, p)
						return e
					})
					if class.name == "crash" {
						// The crashed worker must be declared dead and the
						// run must surface a typed error.
						if runErr == nil {
							t.Fatal("crash schedule completed without error")
						}
						if !isTypedFault(runErr) {
							t.Fatalf("crash produced untyped error: %v", runErr)
						}
						deadSeen := false
						for _, q := range c.DeadWorkers() {
							if q == 2 {
								deadSeen = true
							}
						}
						if !deadSeen {
							t.Errorf("crashed worker 2 not in dead set %v", c.DeadWorkers())
						}
						return
					}
					if runErr != nil {
						if class.alwaysHeal {
							t.Fatalf("lossless class returned error: %v", runErr)
						}
						if !isTypedFault(runErr) {
							t.Fatalf("untyped error escaped: %v", runErr)
						}
						return // degraded with a typed error: acceptable
					}
					// Healed: results must be bit-identical to reliable.
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("silent corruption at %d: got %v want %v", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
	if schedules < 50 {
		t.Fatalf("only %d fault schedules exercised, want ≥ 50", schedules)
	}
}

// TestFaultScheduleDeterministic replays one drop-heavy plan twice and
// demands the same injected-drop schedule and the same healed results —
// the property that makes fault runs debuggable.
func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() (drops int64, digest []float64) {
		inj := NewFaultInjector(FaultPlan{Seed: 99, DropProb: 0.3})
		c, err := NewWithOptions(4, DefaultParams(), faultyOptions(inj))
		if err != nil {
			t.Fatal(err)
		}
		digest, runErr := faultMatrixOps[1].run(c, 4) // all-to-all
		if runErr != nil && !isTypedFault(runErr) {
			t.Fatalf("untyped error: %v", runErr)
		}
		d, _, _, _ := inj.Injected()
		return d, digest
	}
	d1, g1 := run()
	d2, g2 := run()
	if d1 == 0 {
		t.Fatal("plan injected no drops; schedule not exercised")
	}
	if d1 != d2 {
		t.Errorf("drop schedule not deterministic: %d vs %d", d1, d2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Errorf("replay diverged at %d: %v vs %v", i, g1[i], g2[i])
		}
	}
}

// TestRetryHealsDrops pins the healing path itself: a lossy fabric must
// produce retransmits and timeouts in the stats while the logical message
// count stays identical to the reliable run.
func TestRetryHealsDrops(t *testing.T) {
	inj := NewFaultInjector(FaultPlan{Seed: 5, DropProb: 0.4})
	c, err := NewWithOptions(4, DefaultParams(), faultyOptions(inj))
	if err != nil {
		t.Fatal(err)
	}
	got, runErr := faultMatrixOps[1].run(c, 4)
	if runErr != nil {
		if !isTypedFault(runErr) {
			t.Fatalf("untyped error: %v", runErr)
		}
		t.Skipf("seed 5 exhausted the retry budget (%v); heal path covered by TestFaultMatrix", runErr)
	}
	ref, _ := New(4, DefaultParams())
	want, _ := faultMatrixOps[1].run(ref, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("healed run corrupted at %d", i)
		}
	}
	fs := c.Stats.FaultSnapshot()
	if fs.Retransmits == 0 || fs.Timeouts == 0 {
		t.Errorf("drops healed without retries? %+v", fs)
	}
	_, msgs, _, _ := c.Stats.Snapshot()
	_, refMsgs, _, _ := ref.Stats.Snapshot()
	if msgs != refMsgs {
		t.Errorf("logical message count %d != reliable %d (retransmits must not count)", msgs, refMsgs)
	}
}

// TestCorruptionDetected pins the checksum path: corrupted deliveries are
// counted and dropped, and the healed payloads are intact.
func TestCorruptionDetected(t *testing.T) {
	inj := NewFaultInjector(FaultPlan{Seed: 11, CorruptProb: 0.5})
	c, err := NewWithOptions(3, DefaultParams(), faultyOptions(inj))
	if err != nil {
		t.Fatal(err)
	}
	err = withWatchdog(t, "corrupt-ring", 20*time.Second, func() error {
		return c.Run(func(w *Worker) error {
			payload := []float64{math.Pi * float64(w.ID+1), -2.5}
			if err := w.Send((w.ID+1)%3, payload); err != nil {
				return err
			}
			got, err := w.Recv((w.ID + 2) % 3)
			if err != nil {
				return err
			}
			prev := (w.ID + 2) % 3
			if got[0] != math.Pi*float64(prev+1) || got[1] != -2.5 {
				t.Errorf("worker %d: corrupted payload accepted: %v", w.ID, got)
			}
			return nil
		})
	})
	if err != nil {
		if !isTypedFault(err) {
			t.Fatalf("untyped error: %v", err)
		}
		return
	}
	_, _, _, corrupts := inj.Injected()
	if corrupts == 0 {
		t.Fatal("injector corrupted nothing; schedule not exercised")
	}
	if fs := c.Stats.FaultSnapshot(); fs.CorruptDropped == 0 {
		t.Errorf("corruptions injected but none detected: %+v", fs)
	}
}

// TestWorkerErrorDoesNotDeadlockPeers is the deadlock regression test from
// the issue: a worker that returns early (error) must not leave peers
// blocked in Recv forever — their deadlines must resolve into FaultError.
func TestWorkerErrorDoesNotDeadlockPeers(t *testing.T) {
	c, err := NewWithOptions(3, DefaultParams(),
		Options{RecvTimeout: 5 * time.Millisecond, RetryBudget: 3})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var errs []error
	withWatchdog(t, "early-error", 20*time.Second, func() error {
		errs = c.RunAll(func(w *Worker) error {
			if w.ID == 1 {
				return boom // fails before ever sending
			}
			_, err := w.Recv(1)
			return err
		})
		return nil
	})
	if !errors.Is(errs[1], boom) {
		t.Errorf("worker 1 error = %v, want boom", errs[1])
	}
	for _, id := range []int{0, 2} {
		var fe *FaultError
		if !errors.As(errs[id], &fe) {
			t.Errorf("worker %d: error %v, want FaultError", id, errs[id])
		} else if fe.Peer != 1 {
			t.Errorf("worker %d: blamed peer %d, want 1", id, fe.Peer)
		}
	}
}

// TestBroadcastCounts asserts exact message totals and α–β time for
// Broadcast at P ∈ {1, 2, 7}, including non-root self-consistency.
func TestBroadcastCounts(t *testing.T) {
	for _, p := range []int{1, 2, 7} {
		c, err := New(p, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		root := p - 1 // non-zero root whenever P > 1
		payload := []float64{1, 2, 3}
		err = c.Run(func(w *Worker) error {
			got, err := w.Broadcast(root, payload)
			if err != nil {
				return err
			}
			for i := range payload {
				if got[i] != payload[i] {
					t.Errorf("P=%d worker %d: got %v", p, w.ID, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		bytes, msgs, _, simSec := c.Stats.Snapshot()
		wantMsgs := int64(p - 1)
		wantBytes := 24 * wantMsgs
		wantSec := float64(p-1) * DefaultParams().MessageTime(24)
		if msgs != wantMsgs || bytes != wantBytes {
			t.Errorf("P=%d: %d msgs %d bytes, want %d msgs %d bytes", p, msgs, bytes, wantMsgs, wantBytes)
		}
		if math.Abs(simSec-wantSec) > 1e-15 {
			t.Errorf("P=%d: simulated %g sec, want %g (p2p traffic must be α–β timed)", p, simSec, wantSec)
		}
	}
}

// TestAllReduceSumCounts asserts exact message totals and α–β time for
// AllReduceSum at P ∈ {1, 2, 7}: P−1 gather messages of the local vector
// plus P−1 broadcast messages carrying the totals and the dead mask.
func TestAllReduceSumCounts(t *testing.T) {
	for _, p := range []int{1, 2, 7} {
		c, err := New(p, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		err = c.Run(func(w *Worker) error {
			total, err := w.AllReduceSum([]float64{float64(w.ID), 1})
			if err != nil {
				return err
			}
			wantA := float64(p*(p-1)) / 2
			if total[0] != wantA || total[1] != float64(p) {
				t.Errorf("P=%d worker %d: total %v", p, w.ID, total)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		bytes, msgs, _, simSec := c.Stats.Snapshot()
		wantMsgs := int64(2 * (p - 1))
		wantBytes := int64(p-1) * (16 + 24) // gather 2 floats, broadcast mask+2 floats
		wantSec := float64(p-1) * (DefaultParams().MessageTime(16) + DefaultParams().MessageTime(24))
		if msgs != wantMsgs || bytes != wantBytes {
			t.Errorf("P=%d: %d msgs %d bytes, want %d msgs %d bytes", p, msgs, bytes, wantMsgs, wantBytes)
		}
		if math.Abs(simSec-wantSec) > 1e-15 {
			t.Errorf("P=%d: simulated %g sec, want %g", p, simSec, wantSec)
		}
	}
}

// TestSendContributesSimulatedTime pins the recordMessage fix: a single
// point-to-point send must contribute exactly one α–β message time.
func TestSendContributesSimulatedTime(t *testing.T) {
	c, err := New(2, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(w *Worker) error {
		if w.ID == 0 {
			return w.Send(1, []float64{1, 2, 3, 4})
		}
		_, err := w.Recv(0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, simSec := c.Stats.Snapshot()
	want := DefaultParams().MessageTime(32)
	if math.Abs(simSec-want) > 1e-18 {
		t.Errorf("simulated %g sec, want %g", simSec, want)
	}
}

// TestAllToAllGlobalMaxAccounting pins the satellite fix: the collective's
// α–β round must be costed with the LARGEST pairwise buffer across all
// ranks, not rank 0's local maximum. Rank 1 ships the big buffer here.
func TestAllToAllGlobalMaxAccounting(t *testing.T) {
	const p = 3
	c, err := New(p, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(w *Worker) error {
		out := make([][]float64, p)
		for q := 0; q < p; q++ {
			out[q] = []float64{float64(w.ID)}
		}
		if w.ID == 1 {
			out[2] = make([]float64, 64) // 512 bytes: the global max
		}
		_, err := w.AllToAll(out)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, colls, simSec := c.Stats.Snapshot()
	if colls != 1 {
		t.Fatalf("collectives = %d want 1", colls)
	}
	want := float64(p-1) * DefaultParams().MessageTime(512)
	if math.Abs(simSec-want) > 1e-15 {
		t.Errorf("simulated %g sec, want %g (global max 512 bytes, not rank 0's 8)", simSec, want)
	}
}

// healthyLowComm runs the fault-free reference the healing tests compare
// against.
func healthyLowComm(t *testing.T, f *grid.Field, p int) *grid.Field {
	t.Helper()
	c, err := New(p, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := LowCommConvolve(c, f, green.Gaussian{Sigma: 2}, 8, 8, conv.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Field
}

// TestLowCommConvolveHealsCrash: worker 3 dies at the exchange (its first
// top-level op) once; the generation aborts, the epoch resets, and the
// second generation returns the healthy bits.
func TestLowCommConvolveHealsCrash(t *testing.T) {
	const p = 4
	f := randGrid(grid.Cube(16), 21)
	want := healthyLowComm(t, f, p)
	// 50 ms × four doubling attempts outlasts the skew between live workers
	// reaching the exchange, even under -race: a live worker declared dead
	// would cost a third generation.
	opts := faultyOptions(NewFaultInjector(FaultPlan{Seed: 1, Crashes: []CrashPoint{{Worker: 3, Op: 1}}}))
	opts.RecvTimeout = 50 * time.Millisecond
	c, err := NewWithOptions(p, DefaultParams(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var res *LowCommResult
	err = withWatchdog(t, "healed-convolve", 60*time.Second, func() (err error) {
		res, err = LowCommConvolve(c, f, green.Gaussian{Sigma: 2}, 8, 8, conv.Config{Workers: 1})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 2 {
		t.Errorf("%d generations, want 2 (one aborted by the crash)", res.Generations)
	}
	if i, ok := sameBits(res.Field, want); !ok {
		t.Errorf("healed field differs from the healthy run at voxel %d", i)
	}
}

// TestLowCommConvolveGivesUpOnStickyCrash: a worker that dies at every
// exchange aborts every generation; after 2P+2 the call returns an error
// wrapping that worker's *CrashError, and never hangs.
func TestLowCommConvolveGivesUpOnStickyCrash(t *testing.T) {
	const p = 4
	c, err := NewWithOptions(p, DefaultParams(),
		faultyOptions(NewFaultInjector(FaultPlan{Seed: 1, CrashWorker: 3, CrashAtOp: 1})))
	if err != nil {
		t.Fatal(err)
	}
	err = withWatchdog(t, "sticky-crash-convolve", 60*time.Second, func() error {
		_, err := LowCommConvolve(c, randGrid(grid.Cube(16), 4), green.Gaussian{Sigma: 2}, 8, 8, conv.Config{Workers: 1})
		return err
	})
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Worker != 3 {
		t.Fatalf("sticky crash returned %v, want an error wrapping worker 3's *CrashError", err)
	}
	// One exchange per generation: the crash's op index counts them.
	if ce.OpIndex != 2*p+2 {
		t.Errorf("gave up after %d generations, want 2P+2 = %d", ce.OpIndex, 2*p+2)
	}
}

// TestLowCommConvolveTransientFaultsBitIdentical: drops, corruption,
// duplicates and delays in the single exchange heal in the transport and
// leave the field bit-identical to the fault-free run.
func TestLowCommConvolveTransientFaultsBitIdentical(t *testing.T) {
	const p = 4
	f := randGrid(grid.Cube(32), 17)
	want := healthyLowComm(t, f, p)
	for _, pl := range []struct {
		name string
		plan FaultPlan
	}{
		{"drop", FaultPlan{Seed: 7, DropProb: 0.3}},
		{"corrupt", FaultPlan{Seed: 7, CorruptProb: 0.2}},
		{"dup", FaultPlan{Seed: 7, DupProb: 0.5}},
		{"delay", FaultPlan{Seed: 7, DelayProb: 0.5, Delay: 2 * time.Millisecond}},
	} {
		opts := faultyOptions(NewFaultInjector(pl.plan))
		opts.RecvTimeout = 50 * time.Millisecond
		c, err := NewWithOptions(p, DefaultParams(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var res *LowCommResult
		err = withWatchdog(t, pl.name, 60*time.Second, func() (err error) {
			res, err = LowCommConvolve(c, f, green.Gaussian{Sigma: 2}, 8, 8, conv.Config{Workers: 1})
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", pl.name, err)
		}
		if i, ok := sameBits(res.Field, want); !ok {
			t.Errorf("%s: field differs from the fault-free run at voxel %d", pl.name, i)
		}
	}
}
