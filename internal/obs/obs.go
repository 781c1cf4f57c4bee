// Package obs is the pipeline-wide observability layer: hierarchical
// wall-clock spans, typed counters, and high-water gauges, exportable as
// Chrome trace-event JSON (chrome://tracing, Perfetto) or flat text.
//
// The paper's whole argument is a communication/memory accounting claim
// (Eq. 1–2, Eq. 6, Tables 1–4); the analytic models in cluster and gpu
// predict those quantities, and obs measures what the code actually moves,
// times, and allocates so the two can be cross-checked (see
// cluster.TestMeasuredCommMatchesModel). OpenFFT and SpComm3D validate
// their communication claims with exactly this kind of per-phase
// decomposed instrumentation.
//
// Everything is nil-safe: methods on a nil *Trace, *Span, *Counter, or
// *Gauge are no-ops, so hot paths thread a possibly-nil trace without
// branching. A nil trace costs one predictable branch per call site.
//
// The package depends only on the standard library.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Trace collects spans, counters, and gauges for one pipeline run. All
// methods are safe for concurrent use.
type Trace struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []SpanRecord
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	order    []string // counter registration order, for deterministic export
	gorder   []string // gauge registration order
	horder   []string // histogram registration order
}

// New creates an empty trace whose span timestamps are relative to now.
func New() *Trace {
	return &Trace{
		epoch:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SpanRecord is one completed span.
type SpanRecord struct {
	Name  string
	Track int           // display track (Chrome tid); 0 is the main track
	Start time.Duration // offset from the trace epoch
	Dur   time.Duration
}

// Span is an in-flight timed region. Start spans from a Trace (or from a
// parent Span to inherit its track) and call End when the region
// completes; only ended spans are recorded and exported.
type Span struct {
	t     *Trace
	name  string
	track int
	start time.Time
}

// Start opens a span on the main track. Nil-safe.
func (t *Trace) Start(name string) *Span { return t.StartTrack(name, 0) }

// StartTrack opens a span on an explicit display track — concurrent
// regions (e.g. per-worker loop bodies) belong on distinct tracks so the
// Chrome trace renders them side by side. Nil-safe.
func (t *Trace) StartTrack(name string, track int) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, track: track, start: time.Now()}
}

// Start opens a child span on the parent's track. Nil-safe.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.StartTrack(name, s.track)
}

// StartTrack opens a child span on an explicit track. Nil-safe.
func (s *Span) StartTrack(name string, track int) *Span {
	if s == nil {
		return nil
	}
	return s.t.StartTrack(name, track)
}

// End closes the span, records it, and returns its duration. Nil-safe.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	t := s.t
	t.mu.Lock()
	t.spans = append(t.spans, SpanRecord{
		Name:  s.name,
		Track: s.track,
		Start: s.start.Sub(t.epoch),
		Dur:   d,
	})
	t.mu.Unlock()
	return d
}

// Counter is a monotonically-increasing 64-bit sum (bytes moved, pencils
// transformed, samples emitted, modeled FLOPs…). Adds are lock-free.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current sum. Nil-safe (zero).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks a high-water mark (peak working-set bytes, max queue
// depth…): Max keeps the largest value observed.
type Gauge struct {
	mu  sync.Mutex
	max int64
	set bool
}

// Max folds one observation into the high-water mark. Nil-safe.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if !g.set || v > g.max {
		g.max = v
		g.set = true
	}
	g.mu.Unlock()
}

// Value returns the high-water mark. Nil-safe (zero).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Counter returns the named counter, creating it on first use. Callers on
// hot paths should look the counter up once and reuse the pointer.
// Nil-safe: a nil trace returns a nil counter whose Add is a no-op.
func (t *Trace) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{}
		t.counters[name] = c
		t.order = append(t.order, name)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (t *Trace) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.gauges[name]
	if !ok {
		g = &Gauge{}
		t.gauges[name] = g
		t.gorder = append(t.gorder, name)
	}
	return g
}

// CounterValue returns the named counter's value, zero if absent. Nil-safe.
func (t *Trace) CounterValue(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	c := t.counters[name]
	t.mu.Unlock()
	return c.Value()
}

// Spans returns a copy of every completed span. Nil-safe.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// CounterSnapshot is one counter's exported value.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// Counters returns every counter in registration order. Nil-safe.
func (t *Trace) Counters() []CounterSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]CounterSnapshot, 0, len(t.order))
	for _, n := range t.order {
		out = append(out, CounterSnapshot{Name: n, Value: t.counters[n].Value()})
	}
	return out
}

// Gauges returns every gauge in registration order. Nil-safe.
func (t *Trace) Gauges() []CounterSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]CounterSnapshot, 0, len(t.gorder))
	for _, n := range t.gorder {
		out = append(out, CounterSnapshot{Name: n, Value: t.gauges[n].Value()})
	}
	return out
}

// TraceSnapshot is a read-only point-in-time view of every registered
// metric. Taking one never mutates the trace: no spans are ended, no
// names are registered, and in-flight spans stay in flight — it is safe
// to take from a scrape handler while a solve is running.
type TraceSnapshot struct {
	Counters   []CounterSnapshot
	Gauges     []CounterSnapshot
	Histograms []HistogramSnapshot
}

// Snapshot captures every counter, gauge, and histogram in registration
// order. The live telemetry bridge (internal/telemetry) renders this;
// nothing about the trace changes. Nil-safe (empty snapshot).
func (t *Trace) Snapshot() TraceSnapshot {
	return TraceSnapshot{
		Counters:   t.Counters(),
		Gauges:     t.Gauges(),
		Histograms: t.Histograms(),
	}
}

// FFTFlops is the standard 5·N·log₂(N) FLOP model of one length-N complex
// transform — the figure the FLOPs counters accumulate. It is a model, not
// a hardware measurement (Bluestein lengths cost a small constant more).
func FFTFlops(n int) int64 {
	if n < 2 {
		return 0
	}
	log2 := 0
	for m := n - 1; m > 0; m >>= 1 {
		log2++
	}
	return int64(5*n) * int64(log2)
}
