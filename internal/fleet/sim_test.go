package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lowcomm3d/internal/gpu"
)

// dumpPostmortem writes the failing run's decision trace to the artifact
// directory named by FLEET_SIM_ARTIFACTS (CI's verify job uploads it on
// failure), when set.
func dumpPostmortem(t *testing.T, log *Log, name string) {
	t.Helper()
	dir := os.Getenv("FLEET_SIM_ARTIFACTS")
	if dir == "" || log == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("postmortem dir: %v", err)
		return
	}
	path := filepath.Join(dir, name+".log")
	if err := log.DumpFile(path); err != nil {
		t.Logf("postmortem dump: %v", err)
		return
	}
	t.Logf("postmortem trace written to %s", path)
}

// TestFleetNeverOvercommits is the scheduler's core safety property,
// checked over seeded random fleets and job streams: at every reachable
// state no device's ledger exceeds its capacity, and when the stream
// drains every reservation has been released exactly once (reserved
// bytes == released bytes, zero double releases, every ledger back to
// zero).
func TestFleetNeverOvercommits(t *testing.T) {
	var rejected, nofit int
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			log := NewLog()
			cfg := SimConfig{
				Seed:    seed,
				Devices: 2 + int(seed%5),
				Jobs:    80,
				Boxes:   1 + int(seed%3),
				Log:     log,
				Check: func(s *Scheduler) error {
					reserved, released, doubles := s.Audit()
					if doubles != 0 {
						return fmt.Errorf("double release observed")
					}
					if released > reserved {
						return fmt.Errorf("released %d > reserved %d", released, reserved)
					}
					return nil
				},
			}
			rep, err := RunSim(cfg)
			if err != nil {
				dumpPostmortem(t, log, fmt.Sprintf("overcommit-seed%d", seed))
				t.Fatalf("RunSim: %v", err)
			}
			fail := func(format string, args ...any) {
				dumpPostmortem(t, log, fmt.Sprintf("overcommit-seed%d", seed))
				t.Errorf(format, args...)
			}
			if rep.Placed != rep.Completed {
				fail("placed %d != completed %d", rep.Placed, rep.Completed)
			}
			if rep.Reserved != rep.Released {
				fail("reserved %d bytes != released %d bytes", rep.Reserved, rep.Released)
			}
			if rep.DoubleReleases != 0 {
				fail("%d double releases", rep.DoubleReleases)
			}
			for i := range rep.EndUsed {
				if rep.EndUsed[i] != 0 {
					fail("device %d holds %d bytes after drain", i, rep.EndUsed[i])
				}
				if rep.MaxUsed[i] > rep.Capacity[i] {
					fail("device %d peaked at %d > capacity %d", i, rep.MaxUsed[i], rep.Capacity[i])
				}
			}
			rejected += rep.Rejected
			nofit += rep.NoFit
		})
	}
	// The property is vacuous if admission never binds: the seeded
	// streams must exercise both rejection paths.
	if rejected == 0 {
		t.Errorf("no seed produced an ErrOverloaded rejection; streams never stressed admission")
	}
	if nofit == 0 {
		t.Errorf("no seed produced an ErrNoFit rejection; streams never exceeded every capacity")
	}
}

// TestFleetNeverOvercommitsConcurrent hammers Place/Release from many
// goroutines (meaningful under -race): the ledgers and audit totals must
// balance regardless of interleaving. Device capacity enforcement is
// structural (Reserve fails rather than overcommits), so the assertion
// is exact accounting at the end plus rejection-type sanity throughout.
func TestFleetNeverOvercommitsConcurrent(t *testing.T) {
	devs := []*gpu.Device{
		{Name: "a", Capacity: 4 * gpu.GiB},
		{Name: "b", Capacity: 2 * gpu.GiB},
		{Name: "c", Capacity: 8 * gpu.GiB},
	}
	s, err := NewScheduler(Options{Devices: devs, N: 1024, FarRate: 16})
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{32, 32, 64, 64, 128}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				k := ks[rng.Intn(len(ks))]
				fp := s.Footprint(k)
				di, err := s.Place(k, fp, 0)
				if err != nil {
					continue // overload under contention is expected
				}
				s.Observe(di, time.Millisecond)
				s.Release(di, fp)
			}
		}(g)
	}
	wg.Wait()
	reserved, released, doubles := s.Audit()
	if reserved != released {
		t.Errorf("reserved %d != released %d after concurrent hammering", reserved, released)
	}
	if doubles != 0 {
		t.Errorf("%d double releases", doubles)
	}
	for i, d := range devs {
		if u := d.Used(); u != 0 {
			t.Errorf("device %d holds %d bytes after all releases", i, u)
		}
	}
	s.Close()
}

// TestStealDeterminism pins the work-stealing schedule: the scheduler is
// a deterministic state machine, so replaying the same seeded workload
// must produce a byte-identical decision trace — across 20 seeds, and
// with at least some runs actually exercising steals.
func TestStealDeterminism(t *testing.T) {
	var steals int64
	for seed := int64(0); seed < 20; seed++ {
		cfg := SimConfig{Seed: seed, Devices: 3 + int(seed%3), Jobs: 60}
		logA, logB := NewLog(), NewLog()
		cfg.Log = logA
		repA, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("seed %d run A: %v", seed, err)
		}
		cfg.Log = logB
		repB, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("seed %d run B: %v", seed, err)
		}
		if !bytes.Equal(logA.Bytes(), logB.Bytes()) {
			dumpPostmortem(t, logA, fmt.Sprintf("determinism-seed%d-a", seed))
			dumpPostmortem(t, logB, fmt.Sprintf("determinism-seed%d-b", seed))
			t.Fatalf("seed %d: replay diverged (%d vs %d trace bytes)",
				seed, logA.Len(), logB.Len())
		}
		if repA.Steals != repB.Steals || repA.Completed != repB.Completed {
			t.Fatalf("seed %d: reports diverged: %+v vs %+v", seed, repA, repB)
		}
		steals += repA.Steals
	}
	if steals == 0 {
		t.Errorf("no seed produced a steal; determinism property never covered stealing")
	}
}

// TestStarvedDeviceDrains pins starvation freedom: when one device never
// runs (wedged runner) but a sibling is idle, the sibling steals the
// wedged device's queue — with the ledger reservations migrating — until
// everything completes. No job waits forever behind a dead queue.
func TestStarvedDeviceDrains(t *testing.T) {
	devs := []*gpu.Device{gpu.V100_32GB(), gpu.V100_32GB()}
	s, err := NewScheduler(Options{Devices: devs, N: 256, FarRate: 16, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 12
	fp := s.Footprint(32)
	for i := 0; i < jobs; i++ {
		if _, err := s.Enqueue(&Task{K: 32, Footprint: fp}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	// Device 0 is wedged: only device 1 ever calls NextBatch.
	buf := make([]*Task, 0, 8)
	completed := 0
	for {
		b := s.NextBatch(1, buf)
		if b == nil {
			break
		}
		s.Complete(1, b, time.Millisecond)
		completed += len(b)
	}
	if completed != jobs {
		t.Errorf("sibling drained %d of %d jobs; wedged queue starved the rest", completed, jobs)
	}
	st := s.Status()
	if st[0].Queued != 0 {
		t.Errorf("wedged device still queues %d jobs", st[0].Queued)
	}
	if st[1].Steals == 0 {
		t.Errorf("drain completed without stealing — placement never used device 0?")
	}
	reserved, released, _ := s.Audit()
	if reserved != released {
		t.Errorf("reserved %d != released %d after steal-driven drain", reserved, released)
	}
	s.Close()
}
