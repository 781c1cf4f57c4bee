// Package jobtrace records per-job lifecycle timelines across the serving
// stack. A TraceID is minted when a job first enters the system (at the wire
// frame receipt, or at serve admission for in-process callers) and follows
// the job through admission, placement, queueing, batching, stealing,
// hedging, recovery, the three convolution stages, and result streaming.
//
// Every event lands in a bounded per-job ring with timestamps taken from a
// single monotonic epoch per job, so a timeline can never go backwards and
// never grows without bound. Jobs and their rings are pooled: the warm
// submit path records a full timeline without allocating.
//
// Placement events carry the losing candidates' Eq. 2 costs and a typed
// reject reason per candidate, making every "why device 3" answerable from
// the timeline alone.
//
// All methods are nil-receiver safe: a nil *Collector mints nil *Jobs, and
// every method on a nil *Job is a no-op. Code under instrumentation never
// has to guard "is tracing on".
package jobtrace

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/obs"
)

// TraceID identifies one job across wire, serve, and fleet. IDs are minted
// by a Collector and are unique within a process; 0 is never a valid ID.
type TraceID uint64

// Kind classifies a lifecycle event.
type Kind uint8

const (
	// KindAdmit marks the job passing admission (queue slot + ledger hold).
	KindAdmit Kind = iota
	// KindPlace marks a placement decision; the event carries the winning
	// device, its Eq. 2 cost, and the scored or rejected alternatives.
	KindPlace
	// KindQueue marks the job entering a device queue.
	KindQueue
	// KindDequeue marks the job leaving a queue for execution.
	KindDequeue
	// KindBatch marks membership in a same-k dispatch batch; Arg is the
	// batch size.
	KindBatch
	// KindSteal marks migration to another device's queue; Dev is the
	// destination, Arg the source device.
	KindSteal
	// KindHedge marks a hedged re-execution being enqueued; Dev is the
	// hedge target, Arg the suspect device.
	KindHedge
	// KindRetry marks a transient failure retry; Arg is the attempt number.
	KindRetry
	// KindRequeue marks recovery re-admission after a device death; Arg is
	// the dead device.
	KindRequeue
	// KindSpill marks fallback to the cluster all-to-all path.
	KindSpill
	// KindStage marks one convolution stage — Label "A", "B" or "C" on the
	// device that ran it — or a solve's accumulation, Label "acc" on no
	// device; Arg is the stage duration in nanoseconds.
	KindStage
	// KindStream marks a result chunk written to the wire; Arg is the
	// chunk payload size in bytes.
	KindStream
	// KindAck marks the client acknowledging streamed bytes; Arg is the
	// acked offset.
	KindAck
	// KindComplete marks successful completion of compute.
	KindComplete
	// KindFail marks terminal failure; Label names the error class.
	KindFail
)

var kindNames = [...]string{
	"admit", "place", "queue", "dequeue", "batch", "steal", "hedge",
	"retry", "requeue", "spill", "stage", "stream", "ack", "complete",
	"fail",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Reject is the typed reason a placement candidate was passed over.
type Reject uint8

const (
	// RejectNone means the candidate was admissible and scored, but lost
	// on Eq. 2 cost.
	RejectNone Reject = iota
	// RejectTried means the candidate already failed this job.
	RejectTried
	// RejectDead means the device is declared dead.
	RejectDead
	// RejectProbation means the device is on probation pending a probe.
	RejectProbation
	// RejectNoFit means the job footprint exceeds the device capacity.
	RejectNoFit
	// RejectSuspect means the device is suspected unhealthy.
	RejectSuspect
	// RejectMemory means the device ledger has insufficient free bytes.
	RejectMemory
	// RejectQueueFull means the device queue is at capacity.
	RejectQueueFull
)

var rejectNames = [...]string{
	"scored", "tried", "dead", "probation", "no-fit", "suspect",
	"memory", "queue-full",
}

func (r Reject) String() string {
	if int(r) < len(rejectNames) {
		return rejectNames[r]
	}
	return "unknown"
}

// MaxCandidates bounds how many placement alternatives one event records.
// When a fleet has more candidates than this, scored losers win slots over
// rejected ones so the decision stays explainable.
const MaxCandidates = 4

// Candidate is one scored or rejected placement alternative.
type Candidate struct {
	Dev    int32
	Cost   float64 // Eq. 2 seconds; 0 when the candidate was rejected unscored
	Reject Reject
}

// Explain is a fixed-size scratch buffer the scheduler fills while scoring
// a placement. It lives inside the scheduler (guarded by its mutex) so the
// allocation-free hot path never escapes a buffer to the heap.
type Explain struct {
	n     int
	cands [MaxCandidates]Candidate
}

// Reset empties the buffer for the next decision.
func (e *Explain) Reset() { e.n = 0 }

// Add records one alternative. Scored candidates (RejectNone) displace
// rejected ones when the buffer is full, so a losing cost is always kept.
func (e *Explain) Add(dev int, cost float64, rej Reject) {
	c := Candidate{Dev: int32(dev), Cost: cost, Reject: rej}
	if e.n < MaxCandidates {
		e.cands[e.n] = c
		e.n++
		return
	}
	if rej != RejectNone {
		return
	}
	for i := range e.cands {
		if e.cands[i].Reject != RejectNone {
			e.cands[i] = c
			return
		}
	}
}

// ringSize bounds the per-job event ring. Long-running jobs overwrite their
// oldest events; Dropped in the snapshot reports how many were lost.
const ringSize = 128

// Event is one timeline entry. At is the offset from the job's monotonic
// epoch. Label must be a static string: events are recorded on the 0-alloc
// warm path and a dynamic label would defeat that.
type Event struct {
	Seq   uint32
	Kind  Kind
	NCand uint8
	Dev   int32 // device index, -1 when not device-bound
	At    time.Duration
	Arg   int64
	Cost  float64
	Label string
	Cands [MaxCandidates]Candidate
}

// Job is one in-flight timeline. All methods are safe on a nil receiver
// and safe for concurrent use.
type Job struct {
	mu     sync.Mutex
	id     TraceID
	tenant string
	start  time.Time // wall clock + monotonic epoch
	seq    uint32
	n      int // total events recorded, may exceed ringSize
	done   bool
	ring   [ringSize]Event

	// Phase marks, as offsets from start; 0 means unset. Place sets
	// placedAt, Batch/Dequeue set dequeuedAt, the last Complete (or else
	// the first Fail) sets computedAt, Finish sets finishedAt.
	placedAt   time.Duration
	dequeuedAt time.Duration
	computedAt time.Duration
	finishedAt time.Duration
}

// ID returns the job's trace ID, 0 for a nil job.
func (j *Job) ID() TraceID {
	if j == nil {
		return 0
	}
	return j.id
}

// Tenant returns the tenant the job was started for.
func (j *Job) Tenant() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	t := j.tenant
	j.mu.Unlock()
	return t
}

func (j *Job) record(e Event) {
	if j == nil {
		return
	}
	at := time.Since(j.start)
	j.mu.Lock()
	e.Seq = j.seq
	j.seq++
	e.At = at
	switch e.Kind {
	case KindPlace:
		if j.placedAt == 0 {
			j.placedAt = at
		}
	case KindDequeue, KindBatch:
		if j.dequeuedAt == 0 {
			j.dequeuedAt = at
		}
	case KindComplete:
		// A multi-box solve completes once per box; compute ends at the
		// last of them.
		j.computedAt = at
	case KindFail:
		if j.computedAt == 0 {
			j.computedAt = at
		}
	}
	j.ring[j.n%ringSize] = e
	j.n++
	j.mu.Unlock()
}

// Event records a generic lifecycle event. label must be a static string.
func (j *Job) Event(k Kind, dev int, label string, arg int64) {
	j.record(Event{Kind: k, Dev: int32(dev), Label: label, Arg: arg})
}

// Place records a placement decision: the winning device, its Eq. 2 cost,
// and the alternatives from the scheduler's Explain scratch (copied before
// the scheduler reuses it).
func (j *Job) Place(dev int, cost float64, ex *Explain) {
	e := Event{Kind: KindPlace, Dev: int32(dev), Cost: cost}
	if ex != nil {
		e.NCand = uint8(ex.n)
		e.Cands = ex.cands
	}
	j.record(e)
}

// Stage records one convolution stage with its measured duration.
func (j *Job) Stage(label string, dev int, d time.Duration) {
	j.record(Event{Kind: KindStage, Dev: int32(dev), Label: label, Arg: int64(d)})
}

// phases partitions the end-to-end latency exactly: clamping each mark to
// the previous one guarantees place+queue+compute+stream == e2e to the
// nanosecond, so the scraped histogram sums reconcile with measured
// latency.
func (j *Job) phases() (place, queue, compute, stream, e2e time.Duration) {
	end := j.finishedAt
	placed := j.placedAt
	if placed <= 0 || placed > end {
		placed = end
	}
	dequeued := j.dequeuedAt
	if dequeued < placed {
		dequeued = placed
	}
	if dequeued > end {
		dequeued = end
	}
	computed := j.computedAt
	if computed < dequeued {
		computed = dequeued
	}
	if computed > end {
		computed = end
	}
	return placed, dequeued - placed, computed - dequeued, end - computed, end
}

// EventSnapshot is the JSON form of one timeline entry.
type EventSnapshot struct {
	Seq        uint32              `json:"seq"`
	Kind       string              `json:"kind"`
	AtNs       int64               `json:"at_ns"`
	Dev        int32               `json:"dev"`
	Arg        int64               `json:"arg,omitempty"`
	Cost       float64             `json:"cost,omitempty"`
	Label      string              `json:"label,omitempty"`
	Candidates []CandidateSnapshot `json:"candidates,omitempty"`
}

// CandidateSnapshot is the JSON form of one placement alternative.
type CandidateSnapshot struct {
	Dev    int32   `json:"dev"`
	Cost   float64 `json:"cost,omitempty"`
	Reject string  `json:"reject"`
}

// PhaseSnapshot decomposes the job's end-to-end latency; the four phases
// sum to E2ENs exactly.
type PhaseSnapshot struct {
	PlaceNs   int64 `json:"place_ns"`
	QueueNs   int64 `json:"queue_ns"`
	ComputeNs int64 `json:"compute_ns"`
	StreamNs  int64 `json:"stream_ns"`
	E2ENs     int64 `json:"e2e_ns"`
}

// JobSnapshot is a consistent copy of one timeline.
type JobSnapshot struct {
	TraceID TraceID         `json:"trace_id"`
	Tenant  string          `json:"tenant"`
	Start   time.Time       `json:"start"`
	Done    bool            `json:"done"`
	Dropped int             `json:"dropped,omitempty"`
	Phases  *PhaseSnapshot  `json:"phases,omitempty"`
	Events  []EventSnapshot `json:"events"`
}

// Snapshot copies the job's timeline. Safe while the job is still running.
func (j *Job) Snapshot() JobSnapshot {
	if j == nil {
		return JobSnapshot{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobSnapshot{TraceID: j.id, Tenant: j.tenant, Start: j.start, Done: j.done}
	kept := j.n
	if kept > ringSize {
		kept = ringSize
		s.Dropped = j.n - ringSize
	}
	first := j.n - kept
	s.Events = make([]EventSnapshot, 0, kept)
	for i := first; i < j.n; i++ {
		e := &j.ring[i%ringSize]
		es := EventSnapshot{
			Seq: e.Seq, Kind: e.Kind.String(), AtNs: int64(e.At),
			Dev: e.Dev, Arg: e.Arg, Cost: e.Cost, Label: e.Label,
		}
		for c := 0; c < int(e.NCand); c++ {
			cand := e.Cands[c]
			es.Candidates = append(es.Candidates, CandidateSnapshot{
				Dev: cand.Dev, Cost: cand.Cost, Reject: cand.Reject.String(),
			})
		}
		s.Events = append(s.Events, es)
	}
	if j.done {
		place, queue, compute, stream, e2e := j.phases()
		s.Phases = &PhaseSnapshot{
			PlaceNs: int64(place), QueueNs: int64(queue),
			ComputeNs: int64(compute), StreamNs: int64(stream),
			E2ENs: int64(e2e),
		}
	}
	return s
}

// recentSize bounds how many finished timelines the collector retains for
// the /jobs endpoints and the Chrome-trace export.
const recentSize = 64

// tenantPhases holds one tenant's per-phase latency histograms.
type tenantPhases struct {
	e2e, place, queue, compute, stream obs.Histogram
}

// Collector mints trace IDs, pools Job rings, and aggregates per-tenant
// phase histograms. A nil *Collector is a valid disabled collector.
type Collector struct {
	next atomic.Uint64
	pool sync.Pool

	mu     sync.Mutex
	active map[TraceID]*Job
	recent [recentSize]*Job
	rn     int

	tmu     sync.RWMutex
	tenants map[string]*tenantPhases
}

// NewCollector returns an enabled collector.
func NewCollector() *Collector {
	c := &Collector{
		active:  make(map[TraceID]*Job),
		tenants: make(map[string]*tenantPhases),
	}
	c.pool.New = func() any { return new(Job) }
	return c
}

// Start mints a TraceID and begins a timeline for tenant. Returns nil on a
// nil collector. The warm path is allocation-free in steady state: jobs
// come from a pool and the active map reuses deleted slots.
func (c *Collector) Start(tenant string) *Job {
	if c == nil {
		return nil
	}
	j := c.pool.Get().(*Job)
	j.mu.Lock()
	j.id = TraceID(c.next.Add(1))
	j.tenant = tenant
	j.start = time.Now()
	j.seq = 0
	j.n = 0
	j.done = false
	j.placedAt, j.dequeuedAt, j.computedAt, j.finishedAt = 0, 0, 0, 0
	j.mu.Unlock()
	c.mu.Lock()
	c.active[j.id] = j
	c.mu.Unlock()
	return j
}

// Finish closes the timeline: stamps the end mark, observes the per-tenant
// phase histograms, and retires the job into the recent ring. The displaced
// oldest retiree returns to the pool. Idempotent; nil-safe on both ends.
func (c *Collector) Finish(j *Job) {
	if c == nil || j == nil {
		return
	}
	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		return
	}
	j.done = true
	j.finishedAt = time.Since(j.start)
	if j.finishedAt <= 0 {
		j.finishedAt = 1
	}
	place, queue, compute, stream, e2e := j.phases()
	tenant := j.tenant
	j.mu.Unlock()

	tp := c.tenant(tenant)
	tp.e2e.Observe(e2e)
	tp.place.Observe(place)
	tp.queue.Observe(queue)
	tp.compute.Observe(compute)
	tp.stream.Observe(stream)

	c.mu.Lock()
	delete(c.active, j.id)
	old := c.recent[c.rn%recentSize]
	c.recent[c.rn%recentSize] = j
	c.rn++
	c.mu.Unlock()
	if old != nil {
		c.pool.Put(old)
	}
}

func (c *Collector) tenant(name string) *tenantPhases {
	c.tmu.RLock()
	tp := c.tenants[name]
	c.tmu.RUnlock()
	if tp != nil {
		return tp
	}
	c.tmu.Lock()
	tp = c.tenants[name]
	if tp == nil {
		tp = new(tenantPhases)
		c.tenants[name] = tp
	}
	c.tmu.Unlock()
	return tp
}

// Jobs snapshots the recent (finished) and active timelines, newest
// finished first, then active in arbitrary order. Nil-safe.
func (c *Collector) Jobs() []JobSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	var js []*Job
	for i := 0; i < recentSize; i++ {
		if j := c.recent[(c.rn-1-i+2*recentSize)%recentSize]; j != nil {
			js = append(js, j)
		}
		if i >= c.rn {
			break
		}
	}
	for _, j := range c.active {
		js = append(js, j)
	}
	c.mu.Unlock()
	out := make([]JobSnapshot, 0, len(js))
	for _, j := range js {
		out = append(out, j.Snapshot())
	}
	return out
}

// Job returns the timeline for one trace ID, searching active then recent.
func (c *Collector) Job(id TraceID) (JobSnapshot, bool) {
	if c == nil {
		return JobSnapshot{}, false
	}
	c.mu.Lock()
	j := c.active[id]
	if j == nil {
		for i := 0; i < recentSize; i++ {
			if r := c.recent[i]; r != nil && r.ID() == id {
				j = r
				break
			}
		}
	}
	c.mu.Unlock()
	if j == nil {
		return JobSnapshot{}, false
	}
	return j.Snapshot(), true
}

// TenantPhases is one tenant's aggregated latency decomposition.
type TenantPhases struct {
	Tenant  string
	E2E     obs.HistogramSnapshot
	Place   obs.HistogramSnapshot
	Queue   obs.HistogramSnapshot
	Compute obs.HistogramSnapshot
	Stream  obs.HistogramSnapshot
}

// PhaseSnapshots returns every tenant's phase histograms, sorted by tenant
// for deterministic exposition output.
func (c *Collector) PhaseSnapshots() []TenantPhases {
	if c == nil {
		return nil
	}
	c.tmu.RLock()
	names := make([]string, 0, len(c.tenants))
	for name := range c.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TenantPhases, 0, len(names))
	for _, name := range names {
		tp := c.tenants[name]
		out = append(out, TenantPhases{
			Tenant:  name,
			E2E:     tp.e2e.Snapshot("e2e"),
			Place:   tp.place.Snapshot("place"),
			Queue:   tp.queue.Snapshot("queue"),
			Compute: tp.compute.Snapshot("compute"),
			Stream:  tp.stream.Snapshot("stream"),
		})
	}
	c.tmu.RUnlock()
	return out
}

type ctxKey struct{}

// NewContext attaches a job to ctx so downstream layers (serve, fleet)
// append to the same timeline. A nil job returns ctx unchanged.
func NewContext(ctx context.Context, j *Job) context.Context {
	if j == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, j)
}

// FromContext extracts the job attached by NewContext, nil if absent.
func FromContext(ctx context.Context) *Job {
	if ctx == nil {
		return nil
	}
	j, _ := ctx.Value(ctxKey{}).(*Job)
	return j
}
