package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histSlots is the fixed bucket count of every Histogram: power-of-two
// bucket boundaries cover 1ns up to the full int64 nanosecond range, so a
// histogram never grows and never loses an observation to overflow.
const histSlots = 64

// Histogram is a bounded-memory log₂-bucketed latency histogram. Bucket i
// counts observations in [2^i, 2^(i+1)) nanoseconds (bucket 0 additionally
// absorbs zero and negative durations), so the whole structure is a fixed
// ~0.5 KiB of atomics: Observe is lock-free and allocation-free, cheap
// enough for per-collective and per-pencil-batch hot paths.
//
// Reads (Count, Sum, Mean, snapshots) are weakly consistent under
// concurrent Observe: they may see a count that is one observation ahead
// of the buckets or vice versa, but never a torn value. Nil-safe like
// every obs primitive: all methods on a nil *Histogram are no-ops.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histSlots]atomic.Int64
}

// bucketIndex maps a nanosecond value to its log₂ bucket.
func bucketIndex(ns int64) int {
	if ns < 1 {
		return 0
	}
	return bits.Len64(uint64(ns)) - 1
}

// bucketUpperNs is the inclusive upper bound of bucket i in nanoseconds:
// 2^(i+1) − 1, saturating at MaxInt64 for the last bucket.
func bucketUpperNs(i int) int64 {
	if i >= 62 {
		return math.MaxInt64
	}
	return (int64(1) << (i + 1)) - 1
}

// Observe folds one duration into the histogram. Lock-free, nil-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// HistogramBucket is one non-empty bucket of a snapshot: the inclusive
// nanosecond upper bound and the raw (non-cumulative) count.
type HistogramBucket struct {
	UpperNs int64
	Count   int64
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Name    string
	Count   int64
	SumNs   int64
	Buckets []HistogramBucket // non-empty buckets, ascending upper bound
}

// Snapshot captures the histogram's current state under the given name.
// Nil-safe: a nil histogram snapshots as empty. This is the bridge for
// histograms that live outside a Trace registry (e.g. per-tenant phase
// histograms) to reach the same exporters.
func (h *Histogram) Snapshot(name string) HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{Name: name}
	}
	return h.snapshot(name)
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{Name: name, Count: h.count.Load(), SumNs: h.sum.Load()}
	for i := 0; i < histSlots; i++ {
		if c := h.buckets[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{UpperNs: bucketUpperNs(i), Count: c})
		}
	}
	return s
}

// Histogram returns the named histogram, creating it on first use. Callers
// on hot paths should look the histogram up once and reuse the pointer.
// Nil-safe: a nil trace returns a nil histogram whose Observe is a no-op.
func (t *Trace) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hists[name]
	if !ok {
		if t.hists == nil {
			t.hists = make(map[string]*Histogram)
		}
		h = &Histogram{}
		t.hists[name] = h
		t.horder = append(t.horder, name)
	}
	return h
}

// Histograms returns a snapshot of every histogram in registration order.
// Nil-safe.
func (t *Trace) Histograms() []HistogramSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]HistogramSnapshot, 0, len(t.horder))
	for _, n := range t.horder {
		out = append(out, t.hists[n].snapshot(n))
	}
	return out
}
