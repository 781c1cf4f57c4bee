package fleet

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func matrixConfig(seed int64, devices int, log *Log) SimConfig {
	return SimConfig{
		Seed:    seed,
		Devices: devices,
		Jobs:    80,
		Log:     log,
		Faults: &FaultSchedule{
			Seed:          uint64(seed)*2654435761 + 1,
			CrashProb:     0.04,
			HangProb:      0.04,
			TransientProb: 0.08,
			SlowProb:      0.10,
			ProbeFailProb: 0.30,
		},
		Health: HealthOptions{
			MinDeadline: 10 * time.Millisecond,
			ProbeEvery:  20 * time.Millisecond,
		},
		HealthTick: 2 * time.Millisecond,
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
}

// TestFleetFaultMatrix is the tentpole property: across ≥20 seeds and
// P∈{2,4} fleets, with crash/hang/transient/slowdown faults injectable
// at every point, every placed job resolves — completed or typed failure,
// never wedged (RunSim errors on a stalled loop) — the audit shows
// reserved == released with zero double releases at every reachable
// state, and every ledger drains to zero. Run under -race in CI.
func TestFleetFaultMatrix(t *testing.T) {
	var deaths, requeued, transients, suspects, hedged, late int64
	for _, devices := range []int{2, 4} {
		for seed := int64(0); seed < 25; seed++ {
			name := fmt.Sprintf("p%d-seed%d", devices, seed)
			t.Run(name, func(t *testing.T) {
				log := &Log{}
				rep, err := RunSim(matrixConfig(seed, devices, log))
				if err != nil {
					dumpPostmortem(t, log, "faultmatrix-"+name)
					t.Fatalf("RunSim: %v", err)
				}
				fail := func(format string, args ...any) {
					dumpPostmortem(t, log, "faultmatrix-"+name)
					t.Errorf(format, args...)
				}
				if rep.Unsettled != 0 {
					fail("%d placed jobs never resolved (hang)", rep.Unsettled)
				}
				if rep.DoubleReleases != 0 {
					fail("%d double releases", rep.DoubleReleases)
				}
				if rep.Reserved != rep.Released {
					fail("reserved %d != released %d after drain", rep.Reserved, rep.Released)
				}
				for i := range rep.EndUsed {
					if rep.EndUsed[i] != 0 {
						fail("device %d holds %d bytes after drain", i, rep.EndUsed[i])
					}
					if rep.MaxUsed[i] > rep.Capacity[i] {
						fail("device %d peaked at %d > capacity %d", i, rep.MaxUsed[i], rep.Capacity[i])
					}
				}
				deaths += rep.Deaths
				requeued += rep.Requeued
				transients += rep.Transients
				suspects += rep.Suspects
				hedged += rep.Hedged
				late += rep.Late
			})
		}
	}
	// The matrix is vacuous if recovery never actually ran.
	if deaths == 0 {
		t.Errorf("no seed killed a device; the matrix never exercised death recovery")
	}
	if requeued == 0 {
		t.Errorf("no seed requeued a job; exactly-once recovery never covered")
	}
	if transients == 0 {
		t.Errorf("no seed hit a transient compute error")
	}
	if suspects == 0 {
		t.Errorf("no seed marked a device suspect")
	}
	if hedged == 0 {
		t.Errorf("no seed launched a hedged re-execution")
	}
	_ = late // late results depend on hang timing; informational only
}

// TestFaultTraceDeterminism pins fault-run replay: the injected faults,
// health transitions, and recovery decisions are all pure functions of
// the seeds, so two identical runs must emit byte-identical decision
// traces.
func TestFaultTraceDeterminism(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		logA, logB := &Log{}, &Log{}
		cfgA := matrixConfig(seed, 3, logA)
		repA, err := RunSim(cfgA)
		if err != nil {
			t.Fatalf("seed %d run A: %v", seed, err)
		}
		cfgB := matrixConfig(seed, 3, logB)
		repB, err := RunSim(cfgB)
		if err != nil {
			t.Fatalf("seed %d run B: %v", seed, err)
		}
		if !bytes.Equal(logA.Bytes(), logB.Bytes()) {
			dumpPostmortem(t, logA, fmt.Sprintf("faultdet-seed%d-a", seed))
			dumpPostmortem(t, logB, fmt.Sprintf("faultdet-seed%d-b", seed))
			t.Fatalf("seed %d: fault replay diverged (%d vs %d trace bytes)",
				seed, logA.Len(), logB.Len())
		}
		if repA.Completed != repB.Completed || repA.Deaths != repB.Deaths || repA.Requeued != repB.Requeued {
			t.Fatalf("seed %d: reports diverged: %+v vs %+v", seed, repA, repB)
		}
	}
}
