// Package serve is a steady-state serving engine for the paper's local
// convolution: a long-running process that accepts sub-domain convolution
// jobs and runs them on a fixed pool of workers. The paper's batching
// observation (§3.1: "multiple chunks can be batch processed by a single
// worker") becomes, in serving form, plan/arena reuse — every job runs
// over the one FFT plan set built with the engine, on its worker's one
// conv.Runner, whose buffer serves every box the worker runs, and after the
// first job of a given box every later job of that box runs the box's
// cached conv.Local into a recycled output arena, so a warm Submit
// performs no heap allocation. Admission control bounds the queue and
// charges each job's modeled device footprint against a gpu.Device ledger,
// rejecting with a typed ErrOverloaded (plus a retry-after hint) instead of
// queuing without bound.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fleet"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/sample"
)

// Options configures an Engine. The engine serves one model: a fixed grid
// shape, kernel, and sampling policy; jobs vary in sub-domain box and
// input data.
type Options struct {
	Dim     grid.Dim3    // full (cubic) grid
	Kernel  green.Kernel // frequency-domain kernel applied to every job
	FarRate int          // far-field sampling rate (≤0: 16)

	Workers    int // engine worker goroutines (≤0: GOMAXPROCS)
	QueueDepth int // max admitted-but-unstarted jobs (≤0: 64)

	// Device, when non-nil, is the admission ledger: each accepted job
	// reserves its modeled footprint (slab + kept planes + samples) for
	// its lifetime, and jobs that would overflow are rejected. A single
	// Device is shorthand for a one-entry Devices fleet.
	Device *gpu.Device

	// Devices, when non-empty, is the admission fleet: each accepted job
	// is placed on the cheapest admissible device by the fleet scheduler
	// (modeled footprint + α–β transfer + per-device backlog) and holds
	// its reservation there for its lifetime. Takes precedence over
	// Device. DeviceBox optionally assigns each device to a node box
	// (fleet.Options.BoxOf); nil puts the whole fleet in one box.
	Devices   []*gpu.Device
	DeviceBox []int

	// Trace receives the engine's counters, gauges, and histograms
	// (serve.*); nil creates a private trace (see Engine.Trace).
	Trace *obs.Trace

	// Jobs, when non-nil, collects a per-job lifecycle timeline for every
	// Submit: admission, placement (with scored alternatives), queueing,
	// dequeue, compute stages, and completion, keyed by a TraceID. A job
	// arriving with a timeline already in its context (the wire layer's)
	// is threaded through unchanged; otherwise the engine starts one per
	// Submit and finishes it when the submitter is done. Tracing keeps the
	// warm path allocation-free (pooled event rings).
	Jobs *jobtrace.Collector

	// TenantWeights assigns deficit-round-robin dispatch weights: a
	// weight-w tenant is served up to w jobs per dispatch visit, so under
	// overload its backlog drains ~w× faster than a weight-1 tenant's
	// while every tenant still gets a visit per cycle (starvation-free).
	// Unlisted tenants get weight 1, which reproduces plain round-robin
	// exactly. Weights also scale the fleet placement cost's backlog term
	// (a weight-w tenant discounts queue wait by 1/w).
	TenantWeights map[string]int

	// testHook (tests only) runs on the worker goroutine as each job
	// starts; installing it via Options means it is in place before the
	// workers spawn, with no write racing their reads.
	testHook func(tenant string)

	// testHookRun (tests only) runs inside the timed section of each
	// job, so tests can inject per-tenant latency that feeds the EWMAs.
	testHookRun func(tenant string)
}

// Result is one completed job. Output is borrowed from the engine's arena
// pool: call Release when done reading (and not after), or keep it and pay
// a fresh allocation on some later job.
type Result struct {
	Output *sample.Compressed
	Stats  conv.Stats
	Wait   time.Duration // time spent queued before a worker picked the job up

	pipe *pipeline
}

// Release returns the output arena to the engine for reuse. The samples
// must not be read after Release.
func (r Result) Release() {
	if r.pipe != nil && r.Output != nil {
		r.pipe.outs.Put(r.Output)
	}
}

// task is one queued job. Tasks are pooled; the done channel is created
// once per task and reused across submissions.
type task struct {
	next      *task // intrusive FIFO link within the tenant queue
	tq        *tenantQueue
	tenant    string // owning tenant (tq is recycled once dequeued)
	ctx       context.Context
	box       grid.Box
	in        [1]*grid.Field        // the input, as conv.Runner.Run takes it
	out       [1]*sample.Compressed // the borrowed arena, then the output
	footprint int64
	dev       int // fleet device holding the reservation (-1: none)
	job       *jobtrace.Job
	jobOwned  bool // engine started the timeline (vs adopted from ctx)
	enq       time.Time
	res       Result
	err       error
	done      chan struct{}
}

// tenantQueue is one tenant's FIFO of queued tasks. Dispatch is
// deficit-round-robin across tenants: each visit refills the tenant's
// credit to its weight and serves up to that many jobs, so a weight-w
// tenant drains ~w× faster under overload while a deep queue can only
// fill its own share, never starve a sibling. A queue is evicted from
// the dispatch order the moment it empties (and pooled for reuse), so
// ephemeral one-shot tenant IDs cannot grow the dispatch scan or the
// tenant map without bound.
type tenantQueue struct {
	name       string
	weight     int // DRR quantum: jobs served per dispatch visit
	credit     int // dequeues left in the current visit
	head, tail *task
	freeNext   *tenantQueue // free-list link while evicted
}

// maxTenantWeight caps a single tenant's DRR weight, bounding the burst
// one visit can dispatch.
const maxTenantWeight = 1 << 20

// Engine is the serving engine. Create with New; Submit is safe for
// concurrent use from any number of goroutines.
type Engine struct {
	dim      grid.Dim3
	far      int
	pw       conv.Pointwise   // the kernel every pipeline applies
	sched    *fleet.Scheduler // nil when no devices are configured
	tr       *obs.Trace
	jobs     *jobtrace.Collector // nil: no lifecycle timelines
	plans    *conv.PlanSet       // the one set every pipeline of this engine runs over
	pipes    *pipeCache
	workers  int
	maxQueue int

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenantQueue // tenants with queued work only
	order    []*tenantQueue          // DRR dispatch order (non-empty queues)
	rr       int                     // order index currently being served
	tqFree   *tenantQueue            // evicted-queue pool (keeps warm path 0-alloc)
	weights  map[string]int          // configured DRR weights (absent: 1)
	queued   int
	draining bool
	closed   bool
	wg       sync.WaitGroup

	taskPool  sync.Pool
	ewmaNanos atomic.Int64 // smoothed job duration, the retry-after basis
	busy      atomic.Int64

	// Metrics are resolved once so the hot path only touches atomics.
	cSubmitted, cCompleted, cRejected *obs.Counter
	cRejQueue, cRejMem                *obs.Counter
	cCancelled                        *obs.Counter
	cPlanHits, cPlanMisses            *obs.Counter
	gQueue, gBusy                     *obs.Gauge
	hJob, hWait                       *obs.Histogram

	// testHookStart, when set (tests only), runs on the worker goroutine
	// as each job starts, before any pipeline work. testHookRun runs
	// inside the timed section.
	testHookStart func(tenant string)
	testHookRun   func(tenant string)
}

// New builds and starts an engine; callers must Drain (or Close) it.
func New(opts Options) (*Engine, error) {
	d := opts.Dim
	if d.Len() == 0 || d.Nx != d.Ny || d.Ny != d.Nz {
		return nil, fmt.Errorf("serve: grid %v must be cubic and non-empty", d)
	}
	if opts.Kernel == nil {
		return nil, fmt.Errorf("serve: nil kernel")
	}
	e := &Engine{
		dim:      d,
		far:      opts.FarRate,
		tr:       opts.Trace,
		jobs:     opts.Jobs,
		workers:  opts.Workers,
		maxQueue: opts.QueueDepth,
		tenants:  make(map[string]*tenantQueue),
		weights:  make(map[string]int, len(opts.TenantWeights)),
	}
	for name, w := range opts.TenantWeights {
		if w < 1 {
			continue
		}
		if w > maxTenantWeight {
			w = maxTenantWeight
		}
		e.weights[name] = w
	}
	if e.far <= 0 {
		e.far = 16
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.maxQueue <= 0 {
		e.maxQueue = 64
	}
	if e.tr == nil {
		e.tr = obs.New()
	}
	devices := opts.Devices
	if len(devices) == 0 && opts.Device != nil {
		devices = []*gpu.Device{opts.Device}
	}
	if len(devices) > 0 {
		sched, err := fleet.NewScheduler(fleet.Options{
			Devices: devices, BoxOf: opts.DeviceBox,
			N: d.Nx, FarRate: e.far, Trace: e.tr,
		})
		if err != nil {
			return nil, err
		}
		e.sched = sched
	}
	e.pipes = newPipeCache(pipelineCap)
	plans, err := conv.NewPlanSet(d, pipelineConfig.Workers)
	if err != nil {
		return nil, err
	}
	e.plans = plans
	e.pw = conv.KernelPointwise(d, opts.Kernel)
	e.cond = sync.NewCond(&e.mu)
	e.taskPool.New = func() any { return &task{done: make(chan struct{}, 1), dev: -1} }

	e.cSubmitted = e.tr.Counter("serve.jobs_submitted")
	e.cCompleted = e.tr.Counter("serve.jobs_completed")
	e.cRejected = e.tr.Counter("serve.jobs_rejected")
	e.cRejQueue = e.tr.Counter("serve.rejects_queue_full")
	e.cRejMem = e.tr.Counter("serve.rejects_memory")
	e.cCancelled = e.tr.Counter("serve.jobs_cancelled")
	e.cPlanHits = e.tr.Counter("serve.plan_cache_hits")
	e.cPlanMisses = e.tr.Counter("serve.plan_cache_misses")
	e.cPlanMisses.Add(1) // the plan-set build above: the engine's only one
	e.gQueue = e.tr.Gauge("serve.queue_depth")
	e.gBusy = e.tr.Gauge("serve.busy_workers")
	e.hJob = e.tr.Histogram("serve.job_seconds")
	e.hWait = e.tr.Histogram("serve.queue_wait_seconds")

	e.testHookStart = opts.testHook
	e.testHookRun = opts.testHookRun
	for i := 0; i < e.workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// Trace returns the engine's metrics trace, for mounting on a telemetry
// server or snapshotting in tests.
func (e *Engine) Trace() *obs.Trace { return e.tr }

// jobFootprint models the device bytes one k³ job holds at peak — the
// shared gpu.JobFootprint model, so serve admission, fleet placement,
// and massif worker admission all price a job identically.
func (e *Engine) jobFootprint(k int) int64 {
	return gpu.JobFootprint(e.dim.Nx, k, e.far)
}

// Submit runs one job — the input field over sub-domain box for the named
// tenant — and blocks until it completes, is rejected, or ctx ends.
// Rejections are immediate and typed: errors.Is(err, ErrOverloaded) with
// an *OverloadError carrying a retry-after hint, or ErrClosed after
// Drain. A ctx that ends while the job is still queued removes it from
// the queue without running it, releases its ledger reservation (freeing
// the slot for other tenants), and returns ctx.Err(); a ctx that ends
// mid-run waits for the run to finish, recycles the output, and still
// returns ctx.Err(). A warm Submit (shape already served, background
// ctx) performs no heap allocation.
func (e *Engine) Submit(ctx context.Context, tenant string, box grid.Box, input *grid.Field) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s := box.Size()
	if s[0] < 1 || s[0] != s[1] || s[1] != s[2] {
		return Result{}, fmt.Errorf("serve: box %v must be a cube", box)
	}
	if !e.dim.Bounds().ContainsBox(box) {
		return Result{}, fmt.Errorf("serve: box %v outside grid %v", box, e.dim)
	}
	if (grid.Dim3{Nx: s[0], Ny: s[1], Nz: s[2]}) != input.Dim {
		return Result{}, fmt.Errorf("serve: input dims %v do not match box %v", input.Dim, box)
	}
	fp := e.jobFootprint(s[0])

	e.mu.Lock()
	if e.draining || e.closed {
		e.mu.Unlock()
		return Result{}, ErrClosed
	}
	if e.queued >= e.maxQueue {
		depth := e.queued
		e.mu.Unlock()
		e.cRejected.Add(1)
		e.cRejQueue.Add(1)
		return Result{}, &OverloadError{
			Reason: "queue full", QueueDepth: depth, RetryAfter: e.retryAfter(depth),
		}
	}
	e.queued++ // hold the queue slot across the device reservation
	depth := e.queued
	w := e.weights[tenant] // absent: 0, normalized to 1 below
	e.mu.Unlock()
	if w < 1 {
		w = 1
	}

	// Lifecycle timeline: adopt one threaded through ctx (the wire
	// layer's — it echoes the TraceID to the client and finishes the
	// job), else start an engine-owned one, finished on recycle.
	j := jobtrace.FromContext(ctx)
	jobOwned := false
	if j == nil && e.jobs != nil {
		j = e.jobs.Start(tenant)
		jobOwned = true
	}
	j.Event(jobtrace.KindAdmit, -1, "", int64(depth))

	dev := -1
	if e.sched != nil {
		di, err := e.sched.PlaceWeighted(s[0], fp, 0, float64(w), j)
		if err != nil {
			e.mu.Lock()
			e.queued--
			e.mu.Unlock()
			e.cRejected.Add(1)
			j.Event(jobtrace.KindFail, -1, "admission", 0)
			if jobOwned {
				e.jobs.Finish(j)
			}
			if errors.Is(err, fleet.ErrFleetDead) {
				// Not an overload: no retry hint helps a fleet with zero
				// live devices. Pass the typed error through so wire can
				// surface it distinctly and clients stop retrying.
				return Result{}, err
			}
			e.cRejMem.Add(1)
			oe := &OverloadError{
				Reason: "device memory", QueueDepth: depth - 1,
				RetryAfter: e.retryAfter(depth - 1), Cause: err,
			}
			// The fleet's rejection carries the per-device hint: the
			// wait of the device closest to admitting this job, priced
			// from that device's own EWMA — not a fleet-wide blend.
			var fe *fleet.OverloadError
			if errors.As(err, &fe) {
				oe.Device, oe.RetryAfter, oe.Cause = fe.Name, fe.RetryAfter, fe.Cause
			}
			return Result{}, oe
		}
		dev = di
	}
	e.gQueue.Max(int64(depth))

	t := e.taskPool.Get().(*task)
	t.box, t.in[0], t.footprint, t.enq = box, input, fp, time.Now()
	t.dev = dev
	t.job, t.jobOwned = j, jobOwned
	t.tenant = tenant
	t.ctx = ctx

	e.mu.Lock()
	if e.draining || e.closed {
		// Raced with Drain after admission: refuse rather than strand a
		// job no worker will ever dequeue.
		e.queued--
		e.mu.Unlock()
		e.releaseDev(t)
		j.Event(jobtrace.KindFail, -1, "closed", 0)
		e.recycle(t)
		return Result{}, ErrClosed
	}
	tq := e.tenants[tenant]
	if tq == nil {
		tq = e.newTenantQueueLocked(tenant)
		e.tenants[tenant] = tq
		e.order = append(e.order, tq)
	}
	t.tq = tq
	if tq.tail != nil {
		tq.tail.next = t
	} else {
		tq.head = t
	}
	tq.tail = t
	e.cond.Signal()
	e.mu.Unlock()
	e.cSubmitted.Add(1)
	j.Event(jobtrace.KindQueue, dev, "", int64(depth))

	if done := ctx.Done(); done != nil {
		select {
		case <-t.done:
		case <-done:
			if e.removeQueued(t) {
				// Still queued: never ran. Give back the slot, the ledger
				// reservation, and the task, and wake any blocked tenant.
				e.releaseDev(t)
				e.cCancelled.Add(1)
				j.Event(jobtrace.KindFail, -1, "cancelled", 0)
				e.recycle(t)
				return Result{}, ctx.Err()
			}
			// A worker already owns the task; it signals done when the run
			// (or the worker's own expiry check) finishes.
			<-t.done
			t.res.Release() // caller is gone; recycle the arena, keep the error typed
			e.recycle(t)
			return Result{}, ctx.Err()
		}
	} else {
		<-t.done
	}
	res, err := t.res, t.err
	e.recycle(t)
	return res, err
}

// newTenantQueueLocked takes a queue from the eviction pool (or builds
// one) and primes it for tenant: configured weight, empty credit — the
// first dispatch visit refills it.
func (e *Engine) newTenantQueueLocked(tenant string) *tenantQueue {
	tq := e.tqFree
	if tq != nil {
		e.tqFree = tq.freeNext
		tq.freeNext = nil
	} else {
		tq = &tenantQueue{}
	}
	w := e.weights[tenant]
	if w < 1 {
		w = 1
	}
	tq.name, tq.weight, tq.credit = tenant, w, 0
	return tq
}

// evictLocked removes the emptied queue at dispatch-order index idx,
// drops its tenant-table entry, and pools the queue object. The dispatch
// order therefore only ever holds tenants with queued work — the bound
// that keeps a stream of one-shot tenant IDs from growing the dispatch
// scan and map forever. Relative order of the survivors is preserved, so
// equal-weight dispatch stays exactly round-robin.
func (e *Engine) evictLocked(idx int) {
	tq := e.order[idx]
	copy(e.order[idx:], e.order[idx+1:])
	e.order[len(e.order)-1] = nil
	e.order = e.order[:len(e.order)-1]
	if e.rr > idx {
		e.rr--
	}
	if e.rr >= len(e.order) {
		e.rr = 0
	}
	delete(e.tenants, tq.name)
	tq.name = ""
	tq.head, tq.tail = nil, nil
	tq.weight, tq.credit = 0, 0
	tq.freeNext = e.tqFree
	e.tqFree = tq
}

// removeQueued unlinks t from its tenant queue if no worker has dequeued
// it yet, reclaiming the queue slot (and evicting the queue if t was its
// last entry). It reports whether the caller now owns the task.
func (e *Engine) removeQueued(t *task) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	tq := t.tq
	if tq == nil {
		return false
	}
	var prev *task
	for cur := tq.head; cur != nil; prev, cur = cur, cur.next {
		if cur != t {
			continue
		}
		if prev == nil {
			tq.head = cur.next
		} else {
			prev.next = cur.next
		}
		if tq.tail == cur {
			tq.tail = prev
		}
		cur.next = nil
		e.queued--
		if tq.head == nil {
			for i, q := range e.order {
				if q == tq {
					e.evictLocked(i)
					break
				}
			}
		}
		return true
	}
	return false
}

// recycle clears a task's per-job state and returns it to the pool; the
// done channel is kept. An engine-owned timeline is finished here — the
// last point every Submit path (success, rejection, cancel, drain race)
// funnels through, so the stream phase covers the submitter's pickup.
func (e *Engine) recycle(t *task) {
	if t.jobOwned {
		e.jobs.Finish(t.job)
	}
	t.job, t.jobOwned = nil, false
	t.next, t.tq, t.in[0], t.out[0], t.ctx = nil, nil, nil, nil, nil
	t.tenant = ""
	t.res, t.err = Result{}, nil
	t.dev = -1
	e.taskPool.Put(t)
}

// releaseDev returns a task's fleet reservation, exactly once per
// admitted task (Place in Submit, release here on the completion,
// cancellation, and drain-race paths).
func (e *Engine) releaseDev(t *task) {
	if e.sched != nil && t.dev >= 0 {
		e.sched.Release(t.dev, t.footprint)
		t.dev = -1
	}
}

// Scheduler exposes the fleet scheduler backing admission (nil when the
// engine was built without devices) — the hook for health supervision,
// fault reporting, and the exactly-once ledger audit.
func (e *Engine) Scheduler() *fleet.Scheduler { return e.sched }

// retryAfter estimates how long an overloaded caller should wait: the
// smoothed job duration times the backlog per worker (plus one job).
func (e *Engine) retryAfter(depth int) time.Duration {
	mean := time.Duration(e.ewmaNanos.Load())
	if mean <= 0 {
		mean = time.Millisecond
	}
	return mean * time.Duration(depth/e.workers+1)
}

func (e *Engine) observeDuration(d time.Duration) {
	e.hJob.Observe(d)
	for {
		old := e.ewmaNanos.Load()
		nw := int64(d)
		if old != 0 {
			nw = old + (int64(d)-old)/8
		}
		if e.ewmaNanos.CompareAndSwap(old, nw) {
			return
		}
	}
}

// worker is one dispatch goroutine: dequeue weighted-fair, run on its own
// conv.Runner, repeat until the engine drains.
func (e *Engine) worker() {
	defer e.wg.Done()
	run := e.plans.NewRunner()
	for {
		t := e.dequeue()
		if t == nil {
			return
		}
		e.runJob(t, run)
	}
}

// dequeue blocks for the next task, serving tenants deficit-round-robin:
// the dispatch order holds exactly the tenants with queued work, the
// cursor stays on one tenant until its per-visit credit (refilled to its
// weight) is spent or its queue empties, then moves on. With every
// weight at 1 this is plain round-robin — one job per tenant per cycle,
// in arrival order of the tenants. Returns nil once the engine is
// draining and the queue is empty.
func (e *Engine) dequeue() *task {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.closed {
			return nil
		}
		if n := len(e.order); n > 0 {
			if e.rr >= n {
				e.rr = 0
			}
			tq := e.order[e.rr]
			if tq.credit <= 0 {
				tq.credit = tq.weight
			}
			t := tq.head
			tq.head = t.next
			if tq.head == nil {
				tq.tail = nil
			}
			t.next = nil
			t.tq = nil // tq may be evicted and recycled before t finishes
			tq.credit--
			e.queued--
			if tq.head == nil {
				e.evictLocked(e.rr)
			} else if tq.credit <= 0 {
				e.rr++
				if e.rr >= len(e.order) {
					e.rr = 0
				}
			}
			return t
		}
		if e.draining {
			return nil
		}
		e.cond.Wait()
	}
}

// runJob executes one dequeued task and signals its submitter. A task
// whose context expired while it sat in the queue is skipped without
// running — the dequeue raced the submitter's own removal, and running a
// job nobody waits for wastes a worker.
func (e *Engine) runJob(t *task, run *conv.Runner) {
	if err := t.ctx.Err(); err != nil {
		t.err = err
		e.cCancelled.Add(1)
		e.releaseDev(t)
		t.job.Event(jobtrace.KindFail, -1, "cancelled", 0)
		t.done <- struct{}{}
		return
	}
	t.job.Event(jobtrace.KindDequeue, t.dev, "", 0)
	e.hWait.Observe(time.Since(t.enq))
	e.gBusy.Max(e.busy.Add(1))
	if h := e.testHookStart; h != nil {
		h(t.tenant)
	}
	start := time.Now()
	if h := e.testHookRun; h != nil {
		h(t.tenant)
	}
	e.execute(t, run)
	d := time.Since(start)
	e.observeDuration(d)
	dev := t.dev
	if e.sched != nil && dev >= 0 {
		// Per-device EWMA: the duration feeds the device that ran the
		// job, so RetryAfter hints reflect that device's latency rather
		// than a fleet-wide blend.
		e.sched.Observe(dev, d)
	}
	e.busy.Add(-1)
	e.releaseDev(t)
	if t.err == nil {
		e.cCompleted.Add(1)
		t.job.Stage("A", dev, t.res.Stats.StageA)
		t.job.Stage("B", dev, t.res.Stats.StageB)
		t.job.Stage("C", dev, t.res.Stats.StageC)
		t.job.Event(jobtrace.KindComplete, dev, "", 0)
	} else {
		t.job.Event(jobtrace.KindFail, dev, "compute", 0)
	}
	t.done <- struct{}{} // t belongs to the submitter from here on
}

// execute resolves the job's pipeline (cached placed box, pooled output
// arena) and runs the convolution on run, filling t.res / t.err.
func (e *Engine) execute(t *task, run *conv.Runner) {
	wait := time.Since(t.enq)
	p := e.pipes.lookup(t.box)
	if p == nil {
		var err error
		p, err = e.pipes.insert(t.box, func() (*pipeline, error) {
			return e.buildPipeline(t.box)
		})
		if err != nil {
			t.err = err
			return
		}
	}
	e.cPlanHits.Add(1) // every executed job runs over the engine's plan set
	out, _ := p.outs.Get().(*sample.Compressed)
	t.out[0] = out // the run allocates an arena in place of nil
	st, err := run.Run(p.local, t.in[:], t.out[:])
	if err != nil {
		if out != nil {
			p.outs.Put(out) // failed run: don't leak the borrowed arena
		}
		t.err = err
		return
	}
	t.res = Result{Output: t.out[0], Stats: st, Wait: wait, pipe: p}
}

// buildPipeline assembles a pipeline for box on a cache miss: its
// conv.Local, placed from the engine's plan set, and its memoized sampling
// geometry, by the default policy.
func (e *Engine) buildPipeline(box grid.Box) (*pipeline, error) {
	l, err := e.plans.NewPolicyLocal(sample.DefaultPolicy(box, e.far), 1, e.pw, pipelineConfig)
	if err != nil {
		return nil, err
	}
	return &pipeline{box: box, local: l}, nil
}

// Drain stops admission, lets every accepted job finish, and shuts the
// workers down. Safe to call more than once; Submit after Drain returns
// ErrClosed.
func (e *Engine) Drain() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.draining = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}

// Close drains the engine (io.Closer-shaped).
func (e *Engine) Close() error {
	e.Drain()
	return nil
}
