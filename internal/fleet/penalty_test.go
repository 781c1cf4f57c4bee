package fleet

import (
	"errors"
	"testing"
	"time"

	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/obs/jobtrace"
)

// TestPlacementPrefersHealthyOverProbation is the fail-pre-fix regression
// test for health-blind placement: before health priced into Eq. 2, a
// device that had just passed its probe streak was indistinguishable from
// a proven-Healthy identical peer and won placement ties by its lower
// index. Now a Probation device is scored at the HealthPenalty-multiplied
// price (visible in the trace candidates and the placement_rejects
// counter), a freshly-readmitted device keeps that price for the
// ReadmitPenalty window, and only after the window closes does the
// index tie-break return.
func TestPlacementPrefersHealthyOverProbation(t *testing.T) {
	clk := NewSimClock()
	col := jobtrace.NewCollector()
	s, err := NewScheduler(Options{
		Devices: []*gpu.Device{gpu.V100_32GB(), gpu.V100_32GB()},
		N:       64,
		Clock:   clk,
		Health: HealthOptions{
			ProbeEvery:     50 * time.Millisecond,
			ProbeSuccesses: 2,
			ReadmitPenalty: 250 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const k = 8
	fp := s.Footprint(k)

	// Identical idle devices: the tie breaks to the lower index.
	if di, err := s.Place(k, fp, 0); err != nil || di != 0 {
		t.Fatalf("baseline Place = (%d, %v), want dev 0", di, err)
	}
	s.Release(0, fp)

	// Dev 0 dies, then passes its first readmission probe: Probation.
	s.ReportDeviceFailure(0, errors.New("injected xid"))
	s.Probe(0, true)
	if got := s.DeviceHealth(0); got != Probation {
		t.Fatalf("dev 0 health = %v, want Probation", got)
	}

	// The Probation device is admissible on the Place path but priced at
	// HealthPenalty×: dev 1 must win, and the trace must show dev 0 as a
	// SCORED candidate (not a typed reject) whose cost carries the
	// penalty over the winner's.
	rejectsBefore := s.Trace().CounterValue("fleet.placement_rejects")
	j := col.Start("acme")
	di, err := s.PlaceWeighted(k, fp, 0, 1, j)
	if err != nil || di != 1 {
		t.Fatalf("PlaceWeighted with dev 0 on probation = (%d, %v), want dev 1", di, err)
	}
	s.Release(1, fp)
	snap := j.Snapshot()
	col.Finish(j)

	var winCost, loseCost float64
	found := false
	for _, ev := range snap.Events {
		if ev.Kind != "place" {
			continue
		}
		for _, c := range ev.Candidates {
			switch c.Dev {
			case 1:
				winCost = c.Cost
			case 0:
				if c.Reject != "scored" {
					t.Fatalf("probation dev 0 recorded as %q candidate, want scored-with-penalty: %+v", c.Reject, ev.Candidates)
				}
				loseCost = c.Cost
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("place event has no scored candidate for the probation device: %+v", snap.Events)
	}
	penalty := s.cost.HealthPenalty
	if loseCost < winCost*penalty*0.99 || loseCost > winCost*penalty*1.01 {
		t.Fatalf("probation cost %g, want ~%g× the healthy peer's %g", loseCost, penalty, winCost)
	}
	if got := s.Trace().CounterValue("fleet.placement_rejects"); got != rejectsBefore+1 {
		t.Fatalf("placement_rejects = %d after penalized loss, want %d", got, rejectsBefore+1)
	}

	// The probe streak completes: dev 0 is Healthy again — but freshly
	// readmitted, so inside the ReadmitPenalty window it still must not
	// beat the proven peer. (Pre-fix this tie went to dev 0.)
	s.Probe(0, true)
	if got := s.DeviceHealth(0); got != Healthy {
		t.Fatalf("dev 0 health = %v after probe streak, want Healthy", got)
	}
	if di, err := s.Place(k, fp, 0); err != nil || di != 1 {
		t.Fatalf("Place right after readmission = (%d, %v), want dev 1 (penalty window open)", di, err)
	}
	s.Release(1, fp)

	// Past the window, trust is restored and the index tie-break returns.
	clk.Advance(251 * time.Millisecond)
	if di, err := s.Place(k, fp, 0); err != nil || di != 0 {
		t.Fatalf("Place after penalty window = (%d, %v), want dev 0", di, err)
	}
	s.Release(0, fp)
}

// TestWeightDiscountsBacklogCost pins the tenant-weight wiring into
// Eq. 2: the weight divides the EWMA-backlog term and nothing else, so a
// weight-w placement on a backlogged device prices exactly as if the
// device's smoothed job time were EWMA/w.
func TestWeightDiscountsBacklogCost(t *testing.T) {
	clk := NewSimClock()
	s, err := NewScheduler(Options{
		Devices: []*gpu.Device{gpu.V100_32GB()},
		N:       64,
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const k = 8
	fp := s.Footprint(k)

	// Seed the EWMA with one completed 1ms job, then hold a reservation
	// so the device carries a backlog of one in-flight job.
	sink := newResultSink(1)
	task := &Task{K: k, Footprint: fp, Slot: 0, sink: sink}
	if _, err := s.Enqueue(task); err != nil {
		t.Fatal(err)
	}
	batch := s.NextBatch(0, nil)
	s.Complete(0, batch, time.Millisecond)
	if _, err := s.Place(k, fp, 0); err != nil {
		t.Fatal(err)
	}
	defer s.Release(0, fp)

	s.mu.Lock()
	ewmaSec := float64(s.devs[0].ewmaNanos) / 1e9
	backlog := len(s.devs[0].queue) + s.devs[0].inflight
	c1, pen1, err1 := s.costLocked(k, 0, 0, 1, clk.Now())
	c4, pen4, err4 := s.costLocked(k, 0, 0, 4, clk.Now())
	s.mu.Unlock()
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	if ewmaSec <= 0 || backlog != 1 {
		t.Fatalf("ewma %gs backlog %d, want a seeded EWMA and one in-flight job", ewmaSec, backlog)
	}
	if pen1 || pen4 {
		t.Fatal("healthy device priced as penalized")
	}
	want1, err := s.cost.PlacementSeconds(s.n, k, s.far, false, backlog, ewmaSec)
	if err != nil {
		t.Fatal(err)
	}
	want4, err := s.cost.PlacementSeconds(s.n, k, s.far, false, backlog, ewmaSec/4)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != want1 {
		t.Errorf("weight-1 cost %g, want unweighted Eq. 2 cost %g", c1, want1)
	}
	if c4 != want4 {
		t.Errorf("weight-4 cost %g, want EWMA/4 Eq. 2 cost %g", c4, want4)
	}
	if c4 >= c1 {
		t.Errorf("weight-4 cost %g not below weight-1 cost %g", c4, c1)
	}
}
