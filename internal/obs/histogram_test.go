package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramNilIsNoOp(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("nil histogram holds state")
	}
	var tr *Trace
	if tr.Histogram("x") != nil {
		t.Fatalf("nil trace produced a histogram")
	}
	if tr.Histograms() != nil {
		t.Fatalf("nil trace returned histogram snapshots")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)                   // bucket 0
	h.Observe(-time.Second)        // clamped to bucket 0
	h.Observe(1)                   // 1ns → bucket 0
	h.Observe(time.Nanosecond * 3) // [2,4) → bucket 1
	h.Observe(time.Microsecond)    // 1000ns → bucket 9 ([512,1024))

	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 1+3+1000 {
		t.Fatalf("sum = %v, want 1004ns", h.Sum())
	}
	snap := h.snapshot("h")
	var total int64
	for i, b := range snap.Buckets {
		total += b.Count
		if i > 0 && b.UpperNs <= snap.Buckets[i-1].UpperNs {
			t.Fatalf("bucket bounds not ascending: %+v", snap.Buckets)
		}
	}
	if total != 5 {
		t.Fatalf("bucket counts sum to %d, want 5", total)
	}
	if snap.Buckets[0].UpperNs != 1 || snap.Buckets[0].Count != 3 {
		t.Fatalf("bucket 0 = %+v, want upper 1ns count 3", snap.Buckets[0])
	}
}

func TestHistogramLargeDurations(t *testing.T) {
	h := &Histogram{}
	h.Observe(time.Duration(math.MaxInt64))
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	snap := h.snapshot("h")
	if top := snap.Buckets[len(snap.Buckets)-1]; top.UpperNs != math.MaxInt64 || top.Count != 1 {
		t.Fatalf("max-duration bucket = %+v, want upper bound MaxInt64 (saturated) holding 1", top)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many goroutines;
// run under -race this is the lock-freedom proof for the hot-path Observe.
func TestHistogramConcurrentObserve(t *testing.T) {
	tr := New()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tr.Histogram("contended")
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Nanosecond)
			}
		}(g)
	}
	// Concurrent readers: snapshots during the writes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			tr.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	h := tr.Histogram("contended")
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*perG)
	}
	snap := h.snapshot("contended")
	var total int64
	for _, b := range snap.Buckets {
		total += b.Count
	}
	if total != goroutines*perG {
		t.Fatalf("bucket sum = %d, want %d", total, goroutines*perG)
	}
}

// TestSnapshotIsReadOnly pins the contract the /metrics scrape handler
// relies on: taking a snapshot registers nothing and changes no values,
// and mutating the returned slices does not touch the trace.
func TestSnapshotIsReadOnly(t *testing.T) {
	tr := New()
	tr.Counter("c").Add(7)
	tr.Gauge("g").Max(9)
	tr.Histogram("h").Observe(time.Millisecond)

	before := tr.Snapshot()
	after := tr.Snapshot()
	if len(after.Counters) != 1 || len(after.Gauges) != 1 || len(after.Histograms) != 1 {
		t.Fatalf("snapshot registered new metrics: %+v", after)
	}
	if before.Counters[0].Value != after.Counters[0].Value {
		t.Fatalf("snapshot mutated counter: %d -> %d", before.Counters[0].Value, after.Counters[0].Value)
	}
	// Mutating the snapshot must not write through to the trace.
	after.Counters[0].Value = 999
	after.Histograms[0].Buckets[0].Count = 999
	if tr.CounterValue("c") != 7 {
		t.Fatalf("snapshot aliases live counter state")
	}
	if tr.Histograms()[0].Buckets[0].Count == 999 {
		t.Fatalf("snapshot aliases live histogram buckets")
	}
	// In-flight spans stay in flight.
	sp := tr.Start("open")
	tr.Snapshot()
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("snapshot ended an in-flight span: %d recorded", n)
	}
	sp.End()
}

// TestHistogramObserveZeroAllocs pins the call every instrumented
// collective, stage and iteration makes at zero allocations.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	h := New().Histogram("allocs")
	var d time.Duration
	if n := testing.AllocsPerRun(1000, func() {
		d += 37 * time.Microsecond // walks the buckets as the run proceeds
		h.Observe(d)
	}); n != 0 {
		t.Fatalf("Histogram.Observe: %v allocs per call, want 0", n)
	}
}

// BenchmarkHistogramObserve measures the hot-path cost every instrumented
// collective/iteration pays.
func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := New().Histogram("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var d time.Duration
		for pb.Next() {
			d += time.Nanosecond
			h.Observe(d)
		}
	})
}
