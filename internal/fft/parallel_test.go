package fft

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"lowcomm3d/internal/obs"
)

// TestParallelForSpannedEarlyBailEndsAllSpans pins the FirstError
// early-bail contract: when one worker records an error and its siblings
// bail out, every spawned worker goroutine must still End its span —
// a span is only recorded into the trace at End, so a leaked (unended)
// span silently drops a worker lane from the Chrome trace and skews any
// imbalance analysis of the run that failed.
func TestParallelForSpannedEarlyBailEndsAllSpans(t *testing.T) {
	const workers, n = 4, 64
	tr := obs.New()
	root := tr.Start("test.root")
	var ec FirstError
	boom := errors.New("boom")
	var calls atomic.Int64
	ParallelForSpanned(root, "test.worker", n, workers, func(w, i int) {
		calls.Add(1)
		if ec.Failed() {
			return // early bail: siblings stop doing work...
		}
		if i == 1 {
			ec.Record(fmt.Errorf("item %d: %w", i, boom))
		}
	})
	root.End()

	if err := ec.Err(); !errors.Is(err, boom) {
		t.Fatalf("FirstError.Err() = %v, want wrapped boom", err)
	}
	if c := calls.Load(); c < workers || c > n {
		t.Errorf("worker calls = %d, want within [%d, %d]", c, workers, n)
	}
	got := 0
	for _, sp := range tr.Spans() {
		if sp.Name != "test.worker" {
			continue
		}
		got++
		if sp.Track < 1 || sp.Track > workers {
			t.Errorf("worker span on track %d, want 1..%d", sp.Track, workers)
		}
		if sp.Dur < 0 {
			t.Errorf("worker span has negative duration %v", sp.Dur)
		}
	}
	// ...but every worker lane still gets recorded: presence in Spans()
	// proves End ran, since spans are recorded only on End.
	if got != workers {
		t.Errorf("recorded %d worker spans after early bail, want %d", got, workers)
	}
}

// TestFirstErrorRecordZeroAllocs pins Record(nil) — once per transformed
// line in Plan3D, Plan2D and the real transforms — at zero allocations: only
// a recorded error may reach the heap.
func TestFirstErrorRecordZeroAllocs(t *testing.T) {
	var ec FirstError
	if allocs := testing.AllocsPerRun(100, func() { ec.Record(nil) }); allocs != 0 {
		t.Errorf("Record(nil): %v allocs per call, want 0", allocs)
	}
	if ec.Failed() {
		t.Error("Record(nil) recorded an error")
	}
}

// TestParallelForSpannedNilParent pins the nil-trace degradation: with no
// parent span the loop must still visit every index exactly once.
func TestParallelForSpannedNilParent(t *testing.T) {
	const n = 37
	var seen [n]atomic.Int32
	ParallelForSpanned(nil, "unused", n, 3, func(w, i int) { seen[i].Add(1) })
	for i := range seen {
		if v := seen[i].Load(); v != 1 {
			t.Fatalf("index %d visited %d times, want 1", i, v)
		}
	}
}
