package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/sample"
)

// EngineOptions configures a fleet Engine.
type EngineOptions struct {
	// Fleet configures the scheduler: devices, boxes, grid edge N,
	// far-field rate, queue depths, batch width, cost model.
	Fleet Options

	// Kernel is the Green's function convolved against.
	Kernel green.Kernel

	// SubSize fixes the decomposition edge k. 0 picks the largest divisor
	// of N (≤ N/2) whose modeled footprint fits some device — the Table 2
	// AllowableK selection applied fleet-wide. A fixed SubSize whose
	// footprint exceeds every device spills to the distributed path.
	SubSize int

	// Conv is the per-pipeline configuration (workers, batch size, trace).
	Conv conv.Config

	// Faults injects seeded deterministic device faults into every batch
	// (crash, hang, transient, slowdown at dispatch / mid-batch /
	// completion). Setting it starts the health monitor — hangs are only
	// recoverable with the monitor watching batch deadlines.
	Faults *FaultSchedule

	// HealthEvery is the health monitor cadence (≤0: 2ms). The monitor
	// runs when Faults is set or HealthEvery is explicitly positive.
	HealthEvery time.Duration

	// Jobs, when non-nil, gives every Solve a lifecycle timeline: one
	// traced job per solve, with each sub-domain task reporting placement,
	// batching, recovery, and stage events onto it.
	Jobs *jobtrace.Collector
}

// SolveStats summarizes one solve.
type SolveStats struct {
	K           int   // decomposition edge used
	Jobs        int   // sub-domain jobs run (zero boxes skipped)
	SkippedZero int   // all-zero sub-domains skipped
	Devices     int   // distinct devices that executed jobs (0 when spilled)
	Spilled     bool  // true when the solve ran on the distributed path
	SpillBytes  int64 // fabric bytes of the spill exchange (counted, not modeled)
}

// Engine executes decomposed convolutions over a device fleet: Solve
// decomposes the input, enqueues one task per non-zero sub-domain, and
// per-device runners drain batches of same-k tasks through a shared
// conv.PlanSet (stages A and C amortized across tenants — the §5.4 batch
// dial applied across jobs). Results accumulate in canonical sub-domain
// order, so the output is byte-identical regardless of which device ran
// which job, how batches formed, or whether work was stolen — and
// byte-identical to the spill path, which assembles in the same order.
type Engine struct {
	sched *Scheduler
	opts  EngineOptions
	dim   grid.Dim3
	far   int
	pw    conv.Pointwise
	plans *conv.PlanSet // read-only; shared by every runner

	mu     sync.Mutex
	closed bool

	runners sync.WaitGroup
	stopMon chan struct{} // nil when the health monitor is not running
}

// NewEngine builds the engine and starts one runner per device.
func NewEngine(opts EngineOptions) (*Engine, error) {
	if opts.Kernel == nil {
		return nil, fmt.Errorf("fleet: nil kernel")
	}
	sched, err := NewScheduler(opts.Fleet)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		sched: sched,
		opts:  opts,
		dim:   grid.Cube(opts.Fleet.N),
		far:   sched.far,
	}
	if e.plans, err = conv.NewPlanSet(e.dim, opts.Conv.Workers); err != nil {
		sched.Close()
		return nil, err
	}
	e.pw = conv.KernelPointwise(e.dim, opts.Kernel)
	for di := 0; di < sched.Devices(); di++ {
		e.runners.Add(1)
		go e.runDevice(di)
	}
	if opts.Faults != nil || opts.HealthEvery > 0 {
		every := opts.HealthEvery
		if every <= 0 {
			every = 2 * time.Millisecond
		}
		e.stopMon = make(chan struct{})
		e.runners.Add(1)
		go e.monitor(every)
	}
	return e, nil
}

// monitor drives the scheduler's health state machine: periodic
// CheckHealth ticks mark stragglers suspect/dead, and due quarantine
// probes run against the device ledger (and the fault schedule's seeded
// probe outcomes) to earn readmission.
func (e *Engine) monitor(every time.Duration) {
	defer e.runners.Done()
	probes := make([]int, e.sched.Devices())
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-e.stopMon:
			return
		case <-tick.C:
			for _, di := range e.sched.CheckHealth(e.sched.Now()) {
				ok := e.opts.Faults.ProbeOK(di, probes[di]) &&
					e.opts.Fleet.Devices[di].Probe() == nil
				probes[di]++
				e.sched.Probe(di, ok)
			}
		}
	}
}

// Scheduler exposes the underlying scheduler (status, audit, metrics).
func (e *Engine) Scheduler() *Scheduler { return e.sched }

// Status snapshots the fleet.
func (e *Engine) Status() []DeviceStatus { return e.sched.Status() }

// Close stops the health monitor and the runners. Idempotent — a second
// Close returns immediately. In-flight solves are drained by the
// scheduler: their tasks resolve with ErrClosed and every waiter
// unblocks; Solve after Close returns ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	if e.stopMon != nil {
		close(e.stopMon)
	}
	e.sched.Close()
	e.runners.Wait()
}

// runDevice is the per-device runner: block for a batch (stealing when
// idle), execute it through the shared plan set, release and report.
// Each dispatch gets a sequence number so injected faults are a pure
// function of (seed, device, dispatch, point).
func (e *Engine) runDevice(di int) {
	defer e.runners.Done()
	buf := make([]*Task, 0, e.sched.maxBatch)
	var seq uint64
	for {
		batch := e.sched.WaitBatch(di, buf)
		if batch == nil {
			return
		}
		e.runBatch(di, batch, seq)
		seq++
	}
}

// runBatch executes one batch under runtime/pprof labels (tenant,
// trace_id from the head task) so CPU profiles of the fleet runners
// attribute samples to tenants and job timelines. This path allocates
// anyway (plans, scratch); the labels are not on serve's 0-alloc path.
func (e *Engine) runBatch(di int, batch []*Task, seq uint64) {
	labels := pprof.Labels(
		"tenant", batch[0].Tenant,
		"trace_id", strconv.FormatUint(uint64(batch[0].Job.ID()), 10))
	pprof.Do(context.Background(), labels, func(context.Context) {
		e.runBatchLabeled(di, batch, seq)
	})
}

// runBatchLabeled executes one batch, consulting the fault schedule at
// the three injection points. A runner only ever writes Result/Err on the
// attempt objects it owns; delivery to the solve happens inside
// Complete, under the scheduler mutex, first-result-wins.
func (e *Engine) runBatchLabeled(di int, batch []*Task, seq uint64) {
	t0 := time.Now()
	f := e.opts.Faults
	if e.injectFault(di, batch, f.At(di, seq, PointDispatch), t0) {
		return
	}
	for i, t := range batch {
		if i > 0 && i == len(batch)/2 {
			if e.injectFault(di, batch, f.At(di, seq, PointMidBatch), t0) {
				return
			}
		}
		t.Result, t.Err = e.runTask(t, di)
	}
	if e.injectFault(di, batch, f.At(di, seq, PointCompletion), t0) {
		return
	}
	e.sched.Complete(di, batch, time.Since(t0))
}

// injectFault applies one injected fault and reports whether the batch
// was consumed by it (true: the runner must not Complete it). A crash
// quarantines the device — recovery reclaims and requeues the batch. A
// hang wedges the runner on the device's reset channel until the health
// monitor declares the device dead (or the scheduler closes); the work
// was already reclaimed by then, so the runner just moves on. A
// transient error fails the batch retryably; a slowdown injects latency
// and lets the batch proceed — the straggler case hedged runs cover.
func (e *Engine) injectFault(di int, batch []*Task, kind FaultKind, t0 time.Time) bool {
	switch kind {
	case FaultCrash:
		e.sched.ReportDeviceFailure(di, fmt.Errorf("fleet: injected crash on device %d", di))
		return true
	case FaultHang:
		<-e.sched.ResetChan(di)
		return true
	case FaultTransient:
		e.sched.FailBatch(di, batch, errTransient, time.Since(t0))
		return true
	case FaultSlow:
		time.Sleep(e.opts.Faults.slowDelay())
	}
	return false
}

func (e *Engine) runTask(t *Task, di int) (*sample.Compressed, error) {
	local, err := e.plans.NewPolicyLocal(sample.DefaultPolicy(t.Box, e.far), e.pw, e.opts.Conv)
	if err != nil {
		return nil, err
	}
	sub, err := t.Input.ExtractBox(t.Box)
	if err != nil {
		return nil, err
	}
	res, stats, err := local.Run(sub)
	local.ReleaseBuffers()
	if err == nil {
		t.Job.Stage("A", di, stats.StageA)
		t.Job.Stage("B", di, stats.StageB)
		t.Job.Stage("C", di, stats.StageC)
	}
	return res, err
}

// pickK chooses the decomposition edge and whether the solve spills: a
// fixed SubSize spills when its footprint exceeds every capacity; auto
// selection walks divisors of N downward from N/2 and takes the largest
// whose footprint some device can hold (Table 2's AllowableK logic
// applied to the fleet), spilling only if even the smallest divisor is
// too large.
func (e *Engine) pickK() (int, bool) {
	n := e.opts.Fleet.N
	max := gpu.MaxCapacity(e.opts.Fleet.Devices)
	if e.opts.SubSize > 0 {
		return e.opts.SubSize, gpu.JobFootprint(n, e.opts.SubSize, e.far) > max
	}
	smallest := n
	for k := n / 2; k >= 2; k-- {
		if n%k != 0 {
			continue
		}
		if gpu.JobFootprint(n, k, e.far) <= max {
			return k, false
		}
		smallest = k
	}
	return smallest, true
}

// Solve convolves f with the engine kernel across the fleet. The result
// is byte-identical for a given (f, k) regardless of fleet shape,
// scheduling order, steals, or spilling.
func (e *Engine) Solve(tenant string, f *grid.Field) (*grid.Field, SolveStats, error) {
	var st SolveStats
	if f.Dim != e.dim {
		return nil, st, fmt.Errorf("fleet: field %v does not match engine grid %v", f.Dim, e.dim)
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, st, ErrClosed
	}
	tj := e.opts.Jobs.Start(tenant)
	defer e.opts.Jobs.Finish(tj)
	k, spill := e.pickK()
	st.K = k
	boxes, err := grid.Decompose(e.dim, k)
	if err != nil {
		return nil, st, err
	}
	// Canonical job list: non-zero boxes in grid.Decompose order. Every
	// execution path accumulates results in this order, which is what
	// makes the output schedule-independent.
	jobs := boxes[:0:0]
	for _, b := range boxes {
		if f.BoxAllZero(b) {
			st.SkippedZero++
			continue
		}
		jobs = append(jobs, b)
	}
	st.Jobs = len(jobs)
	if len(jobs) == 0 {
		return grid.NewField(e.dim), st, nil
	}
	tj.Event(jobtrace.KindAdmit, -1, "", int64(len(jobs)))
	if spill {
		tj.Event(jobtrace.KindSpill, -1, "no-fit", 0)
		return e.runSpill(f, &st, tj)
	}

	fp := e.sched.Footprint(k)
	sink := newResultSink(len(jobs))
	tasks := make([]Task, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i, b := range jobs {
		t := &tasks[i]
		*t = Task{Tenant: tenant, K: k, Footprint: fp, Box: b, Input: f, Slot: i, Job: tj, wg: &wg, sink: sink}
		if _, err := e.sched.EnqueueBlocking(context.Background(), t); err != nil {
			// Record the rejection in this slot and release its latch; the
			// remaining jobs still try — the fleet may recover, or the
			// whole solve falls back to the spill path below.
			sink.errs[i] = err
			wg.Done()
		}
	}
	wg.Wait()
	// Harvest from the sink, never from Task fields: a wedged runner that
	// resumes late may still write its own attempt object, but only the
	// winning attempt's values were copied here, under the scheduler
	// mutex, before the latch fired.
	var firstErr error
	spillable := true
	for i := range jobs {
		if err := sink.errs[i]; err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("fleet: job %d (%v): %w", i, jobs[i], err)
			}
			if !errors.Is(err, ErrFleetDead) && !errors.Is(err, ErrNoFit) && !errors.Is(err, ErrRetriesExhausted) {
				spillable = false
			}
		}
	}
	if firstErr != nil {
		if spillable {
			// Every failure is a capacity loss the distributed path can
			// absorb: recompute the whole solve there. Canonical-order
			// assembly keeps the output byte-identical to a healthy fleet.
			tj.Event(jobtrace.KindSpill, -1, "capacity-loss", 0)
			return e.runSpill(f, &st, tj)
		}
		return nil, st, firstErr
	}
	results := make([]*sample.Compressed, len(jobs))
	devs := map[int]bool{}
	for i := range jobs {
		results[i] = sink.res[i]
		devs[sink.devs[i]] = true
	}
	st.Devices = len(devs)
	out, err := e.accumulate(results, tj)
	return out, st, err
}

// accumulate is the solve's last step — every box's samples interpolated
// and summed in canonical order — timed onto the job's timeline as the
// "acc" stage.
func (e *Engine) accumulate(results []*sample.Compressed, tj *jobtrace.Job) (*grid.Field, error) {
	t0 := time.Now()
	out, err := conv.Accumulate(e.dim, results)
	tj.Stage("acc", -1, time.Since(t0))
	return out, err
}

// spillWorkers is the size of the simulated cluster a spilled solve runs
// on, before clamping to the job count and a divisor of N.
const spillWorkers = 4

// runSpill executes a solve too large for the fleet on the simulated
// low-communication cluster: cluster.LowCommConvolve on up to spillWorkers
// ranks priced by DefaultIB, whose field is conv.Decomposed.Run's bit for
// bit — the same bits the device path accumulates — and whose exchange
// bytes are counted, not modeled.
func (e *Engine) runSpill(f *grid.Field, st *SolveStats, tj *jobtrace.Job) (*grid.Field, SolveStats, error) {
	n := e.dim.Nx
	p := min(spillWorkers, st.Jobs)
	for p > 1 && n%p != 0 {
		p--
	}
	c, err := cluster.New(p, DefaultIB())
	if err != nil {
		return nil, *st, err
	}
	res, err := cluster.LowCommConvolve(c, f, e.opts.Kernel, st.K, e.far, e.opts.Conv)
	if err != nil {
		return nil, *st, err
	}
	tj.Stage("acc", -1, res.Accumulate)
	st.Spilled = true
	st.SpillBytes = res.SampleBytes
	return res.Field, *st, nil
}
