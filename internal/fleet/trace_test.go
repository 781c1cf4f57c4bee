package fleet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/telemetry"
)

// TestJobTimelineStealDeathHedge drives one traced job through the full
// fault gauntlet — stolen by an idle sibling, lost to a device death,
// re-placed, hedged off a suspect device, completed by the hedge — and
// asserts the reassembled timeline tells that story in order:
// admission → placement → requeue → hedge → complete, with every
// placement decision carrying at least one scored alternative (a losing
// candidate priced by Eq. 2) and the dead device showing up as a typed
// reject. Deterministic: one goroutine, a SimClock, and EWMA-free costs
// so every tie breaks to the lowest device index.
func TestJobTimelineStealDeathHedge(t *testing.T) {
	clk := NewSimClock()
	rec := telemetry.NewRecorder(3, 64)
	col := jobtrace.NewCollector()
	s, err := NewScheduler(Options{
		Devices:  []*gpu.Device{gpu.V100_32GB(), gpu.V100_32GB(), gpu.V100_32GB()},
		N:        64,
		MaxBatch: 1, // one job per batch so the clone dispatches alone
		StealMin: 1,
		Clock:    clk,
		Flight:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const k = 8
	fp := s.Footprint(k)

	j := col.Start("acme")
	j.Event(jobtrace.KindAdmit, -1, "", 1)

	// Filler first, traced job second: with zero EWMA every healthy
	// device prices identically, ties break to dev 0, so both land on
	// dev 0 and the traced job is the "newer half" a thief takes.
	filler := &Task{Tenant: "filler", K: k, Footprint: fp}
	if di, err := s.Enqueue(filler); err != nil || di != 0 {
		t.Fatalf("filler Enqueue = (%d, %v), want dev 0", di, err)
	}
	traced := &Task{Tenant: "acme", K: k, Footprint: fp, Job: j}
	if di, err := s.Enqueue(traced); err != nil || di != 0 {
		t.Fatalf("traced Enqueue = (%d, %v), want dev 0", di, err)
	}

	// Idle dev 1 steals the traced job and dispatches it.
	b1 := s.NextBatch(1, nil)
	if len(b1) != 1 || b1[0] != traced {
		t.Fatalf("NextBatch(1) = %v, want the stolen traced task", b1)
	}

	// Dev 1 dies mid-batch: the traced job is reclaimed, requeued as a
	// fresh attempt, and re-placed on a survivor (dev 0 by tie-break).
	s.ReportDeviceFailure(1, errors.New("injected xid"))
	if got := s.DeviceHealth(1); got != Dead {
		t.Fatalf("dev 1 health = %v after failure, want Dead", got)
	}

	// Drain the filler, then dispatch the re-placed clone on dev 0.
	bf := s.NextBatch(0, nil)
	if len(bf) != 1 || bf[0] != filler {
		t.Fatalf("NextBatch(0) = %v, want the filler", bf)
	}
	s.Complete(0, bf, time.Millisecond)
	b2 := s.NextBatch(0, nil)
	if len(b2) != 1 || b2[0].root() != traced {
		t.Fatalf("NextBatch(0) = %v, want the requeued clone of the traced task", b2)
	}

	// Dev 0 blows its batch deadline: suspect, and the clone is hedged
	// onto the last healthy device (dev 2).
	clk.Advance(25 * time.Millisecond)
	s.CheckHealth(s.Now())
	if got := s.DeviceHealth(0); got != Suspect {
		t.Fatalf("dev 0 health = %v after deadline miss, want Suspect", got)
	}
	b3 := s.NextBatch(2, nil)
	if len(b3) != 1 || b3[0].root() != traced {
		t.Fatalf("NextBatch(2) = %v, want the hedge clone", b3)
	}

	// The hedge wins; the straggler resolves late and is dropped.
	s.Complete(2, b3, time.Millisecond)
	s.Complete(0, b2, time.Millisecond)
	if got := s.DeviceHealth(0); got != Healthy {
		t.Fatalf("dev 0 health = %v after drain, want Healthy", got)
	}

	reserved, released, doubles := s.Audit()
	if reserved != released || doubles != 0 {
		t.Fatalf("ledger audit: reserved=%d released=%d doubles=%d", reserved, released, doubles)
	}

	snap := j.Snapshot()
	col.Finish(j)

	// Sequence numbers dense from 0, timestamps monotone.
	for i, ev := range snap.Events {
		if ev.Seq != uint32(i) {
			t.Fatalf("event %d has seq %d, want %d (gap or duplicate)", i, ev.Seq, i)
		}
		if i > 0 && ev.AtNs < snap.Events[i-1].AtNs {
			t.Fatalf("event %d at %dns precedes event %d at %dns", i, ev.AtNs, i-1, snap.Events[i-1].AtNs)
		}
	}

	// The lifecycle chain, by first occurrence.
	first := map[string]int{}
	for i, ev := range snap.Events {
		if _, seen := first[ev.Kind]; !seen {
			first[ev.Kind] = i
		}
	}
	chain := []string{"admit", "place", "requeue", "hedge", "complete"}
	prev := -1
	for _, kind := range chain {
		at, ok := first[kind]
		if !ok {
			t.Fatalf("timeline missing %q event; kinds seen: %v", kind, first)
		}
		if at <= prev {
			t.Fatalf("%q first at %d, not after previous chain link at %d", kind, at, prev)
		}
		prev = at
	}
	for _, kind := range []string{"steal", "batch", "queue"} {
		if _, ok := first[kind]; !ok {
			t.Fatalf("timeline missing %q event", kind)
		}
	}

	// Every placement decision is explainable: ≥1 scored losing
	// candidate, and the second placement names the dead device.
	places := 0
	for _, ev := range snap.Events {
		if ev.Kind != "place" {
			continue
		}
		places++
		scoredLosers := 0
		for _, c := range ev.Candidates {
			if c.Reject == "scored" && c.Dev != ev.Dev {
				scoredLosers++
			}
		}
		if scoredLosers == 0 {
			t.Fatalf("place event seq=%d dev=%d has no scored alternative: %+v", ev.Seq, ev.Dev, ev.Candidates)
		}
	}
	if places != 2 {
		t.Fatalf("saw %d place events, want 2 (admission + post-death re-place)", places)
	}
	var deadRejects int
	for _, ev := range snap.Events {
		for _, c := range ev.Candidates {
			if c.Reject == "dead" && c.Dev == 1 {
				deadRejects++
			}
		}
	}
	if deadRejects == 0 {
		t.Fatal("re-placement after device death never recorded a typed 'dead' reject for dev 1")
	}

	// Typed rejects tick the counter (dead dev 1 was passed over at
	// least once during re-placement and hedging).
	if v := s.Trace().CounterValue("fleet.placement_rejects"); v == 0 {
		t.Fatal("fleet.placement_rejects counter never incremented")
	}

	// Satellite: health transitions land on the flight recorder's
	// per-device rings so the postmortem names the last health event.
	sum := rec.Summary()
	if sum[1].LastHealth == nil || sum[1].LastHealth.Op != "dead" {
		t.Fatalf("dev 1 flight ring LastHealth = %+v, want a 'dead' transition", sum[1].LastHealth)
	}
	if sum[0].LastHealth == nil || sum[0].LastHealth.Op != "healthy" {
		t.Fatalf("dev 0 flight ring LastHealth = %+v, want final 'healthy' transition", sum[0].LastHealth)
	}
	var pm strings.Builder
	if err := rec.WritePostmortem(&pm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pm.String(), "last health:") {
		t.Fatal("postmortem omits the last-health line")
	}
	if !strings.Contains(pm.String(), "injected xid") {
		t.Fatal("postmortem omits the death cause detail")
	}
}

// TestSolveTimelineReadsBoxesThenAccumulate: a traced multi-box solve's
// compute phase runs to the last box's completion, the accumulation after
// it is an "acc" stage event carrying its own duration, and the four phases
// still sum to e2e exactly. A spilled solve places nothing on a device, so
// its timeline is all "place"; it still records the acc stage.
func TestSolveTimelineReadsBoxesThenAccumulate(t *testing.T) {
	const n, k, far = 16, 8, 8
	tiny := &gpu.Device{Name: "tiny", Capacity: 1 << 12} // smaller than any k=8 job
	for _, tc := range []struct {
		name  string
		devs  []*gpu.Device
		spill bool
	}{
		{"devices", []*gpu.Device{gpu.V100_32GB(), gpu.V100_32GB()}, false},
		{"spill", []*gpu.Device{tiny}, true},
	} {
		col := jobtrace.NewCollector()
		e := newTestEngine(t, EngineOptions{
			Fleet:   Options{Devices: tc.devs, N: n, FarRate: far},
			SubSize: k,
			Jobs:    col,
		})
		if _, st, err := e.Solve("t", testField(n, 3)); err != nil || st.Spilled != tc.spill {
			t.Fatalf("%s: Solve spilled=%v, err %v", tc.name, st.Spilled, err)
		}
		jobs := col.Jobs()
		if len(jobs) != 1 || jobs[0].Phases == nil {
			t.Fatalf("%s: want one finished timeline, got %+v", tc.name, jobs)
		}
		s, p := jobs[0], jobs[0].Phases
		if p.PlaceNs+p.QueueNs+p.ComputeNs+p.StreamNs != p.E2ENs {
			t.Errorf("%s: phases %+v do not sum to e2e", tc.name, *p)
		}
		var lastComplete, acc *jobtrace.EventSnapshot
		for i := range s.Events {
			switch ev := &s.Events[i]; {
			case ev.Kind == "complete":
				lastComplete = ev
			case ev.Kind == "stage" && ev.Label == "acc":
				acc = ev
			}
		}
		if acc == nil || acc.Dev != -1 || acc.Arg <= 0 || acc.Arg > p.E2ENs {
			t.Fatalf("%s: want an acc stage on no device with a duration inside the job's %d ns, got %+v", tc.name, p.E2ENs, acc)
		}
		if tc.spill {
			continue
		}
		if lastComplete == nil {
			t.Fatalf("%s: no complete event in %+v", tc.name, s.Events)
		}
		if got := p.PlaceNs + p.QueueNs + p.ComputeNs; got != lastComplete.AtNs {
			t.Errorf("%s: compute ends at %d ns, want the last complete at %d", tc.name, got, lastComplete.AtNs)
		}
		if acc.Arg > p.StreamNs {
			t.Errorf("%s: acc took %d ns but only %d ns follow compute", tc.name, acc.Arg, p.StreamNs)
		}
	}
}
