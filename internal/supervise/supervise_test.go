package supervise

import (
	"sync"
	"testing"
	"time"

	"lowcomm3d/internal/obs"
)

func TestHeartbeatDeathAndRespawnLatency(t *testing.T) {
	tr := obs.New()
	s := New(3, Options{
		HeartbeatTimeout: 30 * time.Millisecond,
		PollInterval:     5 * time.Millisecond,
		Trace:            tr,
	})
	var mu sync.Mutex
	var deaths []int
	s.Start(func(rank int) {
		mu.Lock()
		deaths = append(deaths, rank)
		mu.Unlock()
	})
	defer s.Stop()

	// Ranks 0 and 2 keep beating; rank 1 beats once then goes silent.
	s.Beat(1, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Beat(0, 0)
				s.Beat(2, 0)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(deaths)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(deaths) != 1 || deaths[0] != 1 {
		t.Fatalf("heartbeat deaths = %v, want [1]", deaths)
	}
	if got := tr.CounterValue("supervise.heartbeat_deaths"); got != 1 {
		t.Errorf("heartbeat_deaths counter = %d, want 1", got)
	}

	// Respawn: arm the dead rank, then its first beat of the new
	// generation completes the latency measurement.
	s.ArmRespawn(1)
	time.Sleep(10 * time.Millisecond)
	s.ResetGeneration()
	s.Beat(1, 0)
	st := s.Snapshot()
	if st.Respawns != 1 {
		t.Errorf("respawns = %d, want 1", st.Respawns)
	}
	if st.RespawnLatency < 10*time.Millisecond {
		t.Errorf("respawn latency %v, want ≥ 10ms (armed→beat gap)", st.RespawnLatency)
	}
}

func TestStragglerDetectionByQuantile(t *testing.T) {
	s := New(4, Options{
		StragglerFactor: 3,
		StragglerFloor:  20 * time.Millisecond,
		Trace:           obs.New(),
	})
	// Build a history of fast iterations: median ≈ 1ms, so the effective
	// threshold is the 20ms floor.
	for i := 0; i < 6; i++ {
		s.BeginCompute(0, i)
		time.Sleep(time.Millisecond)
		s.EndCompute(0, i)
	}
	// Rank 3 starts iteration 6 and stalls past the floor. A closed done
	// makes AwaitHelp sweep once instead of waiting.
	s.BeginCompute(3, 6)
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	close(done)
	rank, iter, ok := s.AwaitHelp(0, 6, done)
	if !ok || rank != 3 || iter != 6 {
		t.Fatalf("AwaitHelp = (%d, %d, %v), want (3, 6, true)", rank, iter, ok)
	}
	// The same (rank, iter) is never handed out twice.
	if _, _, again := s.AwaitHelp(1, 6, done); again {
		t.Error("straggler handed to a second helper")
	}
	if s.Snapshot().StragglersDetected != 1 {
		t.Errorf("stragglers_detected = %d, want 1", s.Snapshot().StragglersDetected)
	}
}

func TestNoStragglerWithThinHistory(t *testing.T) {
	s := New(2, Options{StragglerFloor: time.Millisecond})
	s.BeginCompute(0, 0)
	time.Sleep(5 * time.Millisecond)
	done := make(chan struct{})
	close(done)
	// Only 0 completed durations: detection is disarmed.
	if _, _, ok := s.AwaitHelp(1, 0, done); ok {
		t.Error("straggler flagged before any duration history existed")
	}
}

func TestBoardFirstDepositWins(t *testing.T) {
	tr := obs.New()
	s := New(2, Options{Trace: tr})

	if !s.Deposit(1, 4, "backup-result") {
		t.Fatal("first deposit rejected")
	}
	if s.Deposit(1, 4, "straggler-own-result") {
		t.Fatal("second deposit for the same sequence number accepted")
	}
	got, ok := s.Claim(1, 4)
	if !ok || got != "backup-result" {
		t.Fatalf("Claim = (%v, %v), want the first deposit", got, ok)
	}
	// A claim is consumed once; re-claiming must miss.
	if _, again := s.Claim(1, 4); again {
		t.Error("result claimed twice")
	}
	st := s.Snapshot()
	if st.SpeculativeWins != 1 || st.DuplicatesDiscarded != 1 {
		t.Errorf("wins=%d dups=%d, want 1, 1", st.SpeculativeWins, st.DuplicatesDiscarded)
	}

	// Claims with no deposit miss cleanly and count nothing.
	if _, ok := s.Claim(0, 9); ok {
		t.Error("claim hit on empty board slot")
	}

	// ResetGeneration wipes the board: stale speculative results must not
	// leak into the replayed iterations of the next generation.
	s.Deposit(0, 7, "stale")
	s.ResetGeneration()
	if _, ok := s.Claim(0, 7); ok {
		t.Error("board entry survived generation reset")
	}
}

// TestSnapshotCountsWithoutTrace: a supervisor built with no trace still
// reports what it did, so a solve that passes none reads real counts.
func TestSnapshotCountsWithoutTrace(t *testing.T) {
	s := New(2, Options{})
	s.Deposit(1, 0, "first")
	s.Deposit(1, 0, "late")
	s.ArmRespawn(0)
	s.Beat(0, 1)
	if st := s.Snapshot(); st.DuplicatesDiscarded != 1 || st.Respawns != 1 {
		t.Errorf("dups=%d respawns=%d with no trace, want 1, 1", st.DuplicatesDiscarded, st.Respawns)
	}
}

// TestAwaitHelpSleepsUntilSomethingChanges: an idle worker waiting out a
// peer's compute returns when the peer ends it, or when done closes; once
// detection is armed it returns the flagged straggler as the peer's
// compute crosses the cutoff, with no polling by the caller.
func TestAwaitHelpSleepsUntilSomethingChanges(t *testing.T) {
	s := New(2, Options{StragglerFloor: 20 * time.Millisecond})
	s.BeginCompute(1, 0)
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.EndCompute(1, 0)
	}()
	if _, _, ok := s.AwaitHelp(0, 0, nil); ok {
		t.Fatal("AwaitHelp flagged a straggler with no duration history")
	}
	if _, _, ok := s.AwaitHelp(0, 0, nil); ok {
		t.Fatal("AwaitHelp with no peer pending returned a flag")
	}

	for it := 1; it <= minHistory; it++ {
		s.BeginCompute(0, it)
		s.EndCompute(0, it)
	}
	s.BeginCompute(1, 9)
	start := time.Now()
	rank, iter, ok := s.AwaitHelp(0, 9, nil)
	if !ok || rank != 1 || iter != 9 {
		t.Fatalf("AwaitHelp = (%d, %d, %v), want (1, 9, true)", rank, iter, ok)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Errorf("straggler flagged after %v, before the 20ms cutoff", waited)
	}

	done := make(chan struct{})
	time.AfterFunc(10*time.Millisecond, func() { close(done) })
	if _, _, ok := s.AwaitHelp(0, 10, done); ok {
		t.Fatal("AwaitHelp returned a flag after done closed")
	}
}

func TestBoardConcurrentDeposits(t *testing.T) {
	s := New(8, Options{Trace: obs.New()})
	const goroutines = 16
	var wins int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if s.Deposit(2, 5, g) {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d deposits won, want exactly 1", wins)
	}
	if s.Snapshot().DuplicatesDiscarded != goroutines-1 {
		t.Errorf("dups = %d, want %d", s.Snapshot().DuplicatesDiscarded, goroutines-1)
	}
}

func TestChaosScheduleDeterministic(t *testing.T) {
	c := &ChaosSchedule{Seed: 42, StraggleProb: 0.3, StraggleDelay: 10 * time.Millisecond}
	fired := 0
	for w := 0; w < 8; w++ {
		for it := 0; it < 32; it++ {
			d1, d2 := c.Delay(w, it), c.Delay(w, it)
			if d1 != d2 {
				t.Fatalf("Delay(%d,%d) not deterministic: %v vs %v", w, it, d1, d2)
			}
			if d1 != 0 {
				if d1 != c.StraggleDelay {
					t.Fatalf("Delay(%d,%d) = %v, want 0 or %v", w, it, d1, c.StraggleDelay)
				}
				fired++
			}
		}
	}
	// 256 trials at p=0.3: expect ~77 hits; accept a generous band.
	if fired < 40 || fired > 120 {
		t.Errorf("straggle fired %d/256 times at p=0.3; seeded roll looks biased", fired)
	}
	var nilSched *ChaosSchedule
	if nilSched.Delay(0, 0) != 0 {
		t.Error("nil schedule must inject nothing")
	}
}
