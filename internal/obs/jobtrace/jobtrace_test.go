package jobtrace

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var c *Collector
	j := c.Start("tenant")
	if j != nil {
		t.Fatalf("nil collector minted job %v", j)
	}
	j.Event(KindAdmit, -1, "", 0)
	j.Place(0, 1.0, nil)
	j.Stage("A", 0, time.Millisecond)
	if j.ID() != 0 || j.Tenant() != "" {
		t.Fatal("nil job has identity")
	}
	c.Finish(j)
	if got := c.Jobs(); got != nil {
		t.Fatalf("nil collector has jobs: %v", got)
	}
	if _, ok := c.Job(1); ok {
		t.Fatal("nil collector found a job")
	}
	if got := c.PhaseSnapshots(); got != nil {
		t.Fatalf("nil collector has tenants: %v", got)
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	s := j.Snapshot()
	if s.TraceID != 0 || len(s.Events) != 0 {
		t.Fatalf("nil job snapshot = %+v", s)
	}
}

func TestTimelineOrderAndPhases(t *testing.T) {
	c := NewCollector()
	j := c.Start("acme")
	if j.ID() == 0 {
		t.Fatal("job has zero trace ID")
	}
	if j.Tenant() != "acme" {
		t.Fatalf("tenant = %q", j.Tenant())
	}
	j.Event(KindAdmit, -1, "", 0)
	var ex Explain
	ex.Add(1, 2.5, RejectNone)
	ex.Add(2, 0, RejectDead)
	j.Place(0, 1.5, &ex)
	j.Event(KindQueue, 0, "", 0)
	j.Event(KindDequeue, 0, "", 0)
	j.Stage("A", 0, 3*time.Millisecond)
	j.Event(KindComplete, 0, "", 0)
	c.Finish(j)
	c.Finish(j) // idempotent

	s, ok := c.Job(j.ID())
	if !ok {
		t.Fatal("finished job not found")
	}
	if !s.Done {
		t.Fatal("snapshot not done")
	}
	if len(s.Events) != 6 {
		t.Fatalf("got %d events, want 6", len(s.Events))
	}
	var lastAt int64 = -1
	for i, e := range s.Events {
		if e.Seq != uint32(i) {
			t.Fatalf("event %d seq = %d", i, e.Seq)
		}
		if e.AtNs < lastAt {
			t.Fatalf("event %d time went backwards: %d < %d", i, e.AtNs, lastAt)
		}
		lastAt = e.AtNs
	}
	place := s.Events[1]
	if place.Kind != "place" || place.Dev != 0 || place.Cost != 1.5 {
		t.Fatalf("place event = %+v", place)
	}
	if len(place.Candidates) != 2 {
		t.Fatalf("place candidates = %+v", place.Candidates)
	}
	if place.Candidates[0].Dev != 1 || place.Candidates[0].Reject != "scored" {
		t.Fatalf("candidate 0 = %+v", place.Candidates[0])
	}
	if place.Candidates[1].Reject != "dead" {
		t.Fatalf("candidate 1 = %+v", place.Candidates[1])
	}
	p := s.Phases
	if p == nil {
		t.Fatal("finished job has no phases")
	}
	if sum := p.PlaceNs + p.QueueNs + p.ComputeNs + p.StreamNs; sum != p.E2ENs {
		t.Fatalf("phases sum %d != e2e %d", sum, p.E2ENs)
	}
	if p.E2ENs <= 0 {
		t.Fatalf("e2e = %d", p.E2ENs)
	}

	tps := c.PhaseSnapshots()
	if len(tps) != 1 || tps[0].Tenant != "acme" {
		t.Fatalf("tenants = %+v", tps)
	}
	tp := tps[0]
	if tp.E2E.Count != 1 {
		t.Fatalf("e2e count = %d", tp.E2E.Count)
	}
	phaseSum := tp.Place.SumNs + tp.Queue.SumNs + tp.Compute.SumNs + tp.Stream.SumNs
	if phaseSum != tp.E2E.SumNs {
		t.Fatalf("tenant phase sums %d != e2e %d", phaseSum, tp.E2E.SumNs)
	}
}

// TestComputeFollowsLastComplete: a multi-box solve completes once per box,
// and its compute phase runs to the last of them (what follows is the
// accumulation, not compute); a failure keeps the first mark. Either way
// the four phases sum to e2e exactly.
func TestComputeFollowsLastComplete(t *testing.T) {
	c := NewCollector()
	run := func(kinds ...Kind) JobSnapshot {
		j := c.Start("acme")
		j.Place(0, 1, nil)
		j.Event(KindDequeue, 0, "", 0)
		for _, k := range kinds {
			time.Sleep(time.Millisecond)
			j.Event(k, 0, "", 0)
		}
		time.Sleep(time.Millisecond)
		c.Finish(j)
		s, ok := c.Job(j.ID())
		if !ok || s.Phases == nil {
			t.Fatal("finished job has no phases")
		}
		if p := s.Phases; p.PlaceNs+p.QueueNs+p.ComputeNs+p.StreamNs != p.E2ENs {
			t.Fatalf("phases %+v do not sum to e2e", *p)
		}
		return s
	}
	// Events: 0 place, 1 dequeue, then kinds from index 2.
	computeEnd := func(s JobSnapshot) int64 { return s.Events[1].AtNs + s.Phases.ComputeNs }

	s := run(KindComplete, KindComplete, KindComplete)
	if got, want := computeEnd(s), s.Events[4].AtNs; got != want {
		t.Errorf("three completes: compute ends at %d, want the last complete at %d", got, want)
	}
	s = run(KindFail, KindFail)
	if got, want := computeEnd(s), s.Events[2].AtNs; got != want {
		t.Errorf("two failures: compute ends at %d, want the first failure at %d", got, want)
	}
	s = run(KindComplete, KindFail)
	if got, want := computeEnd(s), s.Events[2].AtNs; got != want {
		t.Errorf("complete then fail: compute ends at %d, want the complete at %d", got, want)
	}
}

func TestRingOverwriteBounded(t *testing.T) {
	c := NewCollector()
	j := c.Start("t")
	total := ringSize + 37
	for i := 0; i < total; i++ {
		j.Event(KindStream, -1, "", int64(i))
	}
	s := j.Snapshot()
	if len(s.Events) != ringSize {
		t.Fatalf("ring kept %d events, want %d", len(s.Events), ringSize)
	}
	if s.Dropped != 37 {
		t.Fatalf("dropped = %d, want 37", s.Dropped)
	}
	if s.Events[0].Seq != 37 {
		t.Fatalf("oldest kept seq = %d, want 37", s.Events[0].Seq)
	}
	if last := s.Events[len(s.Events)-1]; last.Seq != uint32(total-1) || last.Arg != int64(total-1) {
		t.Fatalf("newest kept = %+v", last)
	}
}

func TestExplainPrefersScored(t *testing.T) {
	var ex Explain
	for i := 0; i < MaxCandidates; i++ {
		ex.Add(i, 0, RejectNoFit)
	}
	ex.Add(9, 4.5, RejectNone) // full of rejects: the scored loser must win a slot
	found := false
	for _, c := range ex.cands {
		if c.Dev == 9 && c.Reject == RejectNone && c.Cost == 4.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("scored candidate displaced nothing: %+v", ex.cands)
	}
	ex.Add(10, 0, RejectDead) // rejects never displace once full
	for _, c := range ex.cands {
		if c.Dev == 10 {
			t.Fatalf("reject displaced a kept candidate: %+v", ex.cands)
		}
	}
	ex.Reset()
	if ex.n != 0 {
		t.Fatal("reset kept candidates")
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("background context has a job")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil-safety contract
		t.Fatal("nil context has a job")
	}
	c := NewCollector()
	j := c.Start("t")
	ctx := NewContext(context.Background(), j)
	if got := FromContext(ctx); got != j {
		t.Fatalf("round trip = %v, want %v", got, j)
	}
	if ctx2 := NewContext(context.Background(), nil); FromContext(ctx2) != nil {
		t.Fatal("nil job attached")
	}
}

func TestRecentRingRecyclesJobs(t *testing.T) {
	c := NewCollector()
	var firstID TraceID
	for i := 0; i < recentSize+8; i++ {
		j := c.Start("t")
		if i == 0 {
			firstID = j.ID()
		}
		j.Event(KindAdmit, -1, "", 0)
		c.Finish(j)
	}
	if _, ok := c.Job(firstID); ok {
		t.Fatal("displaced job still findable")
	}
	jobs := c.Jobs()
	if len(jobs) != recentSize {
		t.Fatalf("retained %d jobs, want %d", len(jobs), recentSize)
	}
	// Newest first.
	if jobs[0].TraceID < jobs[1].TraceID {
		t.Fatalf("jobs not newest-first: %d then %d", jobs[0].TraceID, jobs[1].TraceID)
	}
}

func TestChromeTraceExport(t *testing.T) {
	c := NewCollector()
	j := c.Start("acme")
	var ex Explain
	ex.Add(1, 2.0, RejectNone)
	j.Place(0, 1.0, &ex)
	j.Event(KindBatch, 0, "", 2)
	j.Stage("A", 0, time.Millisecond)
	j.Event(KindComplete, 0, "", 0)
	c.Finish(j)
	active := c.Start("other") // still running: must export without phases
	active.Event(KindAdmit, -1, "", 0)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Pid   int            `json:"pid"`
			Tid   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var jobTracks, deviceLane, phaseSpans, placeInstants int
	for _, e := range out.TraceEvents {
		switch {
		case e.Phase == "M" && e.Name == "thread_name" && e.Pid == pidJobs:
			jobTracks++
		case e.Phase == "M" && e.Name == "thread_name" && e.Pid == pidDevices:
			deviceLane++
		case e.Phase == "X" && e.Pid == pidJobs:
			phaseSpans++
		case e.Phase == "i" && e.Name == "place" && e.Pid == pidJobs:
			placeInstants++
			if _, ok := e.Args["cand_0"]; !ok {
				t.Fatalf("place instant lost candidates: %+v", e.Args)
			}
		}
	}
	if jobTracks != 2 {
		t.Fatalf("job tracks = %d, want 2", jobTracks)
	}
	if deviceLane != 1 {
		t.Fatalf("device lanes = %d, want 1", deviceLane)
	}
	if phaseSpans == 0 {
		t.Fatal("no phase spans exported")
	}
	if placeInstants != 1 {
		t.Fatalf("place instants = %d", placeInstants)
	}
}

// TestWarmTraceZeroAllocs pins the pooled-ring contract: once the pool and
// tenant registry are warm, a full start→events→finish timeline allocates
// nothing.
func TestWarmTraceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c := NewCollector()
	var ex Explain
	ex.Add(1, 2.0, RejectNone)
	run := func() {
		j := c.Start("warm")
		j.Event(KindAdmit, -1, "", 0)
		j.Place(0, 1.0, &ex)
		j.Event(KindQueue, 0, "", 0)
		j.Event(KindDequeue, 0, "", 0)
		j.Stage("A", 0, time.Millisecond)
		j.Event(KindComplete, 0, "", 0)
		c.Finish(j)
	}
	// Warm the pool past the recent ring so Finish recycles.
	for i := 0; i < recentSize+4; i++ {
		run()
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("warm timeline allocates %v allocs/op, want 0", n)
	}
}
