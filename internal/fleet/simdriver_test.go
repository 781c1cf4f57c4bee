package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/obs/jobtrace"
)

// This file is the scheduler's test driver: RunSim, a seeded
// single-threaded simulation on a SimClock, and the Scheduler entry points
// only it and the property tests call. The fleet Engine drives the same
// state machine through EnqueueBlocking, WaitBatch and its health monitor.

// SimConfig seeds one deterministic scheduler simulation: a random fleet
// (capacities, boxes) and a random job stream (arrival times, sub-domain
// sizes) are derived from Seed; the event loop is single-threaded and
// driven by a SimClock, so the same seed always produces the same
// decision sequence — and, with a Log attached, the same trace bytes.
type SimConfig struct {
	Seed    int64
	Devices int // fleet size (≤0: 4)
	Jobs    int // job stream length (≤0: 64)
	Boxes   int // node boxes to spread devices across (≤0: 2)

	N       int // grid edge (≤0: 1024)
	FarRate int // ≤0: 16

	QueueDepth int
	MaxBatch   int
	StealMin   int

	// Faults injects seeded device faults into dispatched batches; the
	// fault drawn is a pure function of (Faults.Seed, device, dispatch,
	// point), independent of cfg.Seed. Setting it activates the health
	// monitor. Health tunes the monitor; health checks are event-driven
	// (the loop jumps to the scheduler's next deadline or probe),
	// HealthTick only floors the spacing between checks (≤0: 5ms).
	Faults     *FaultSchedule
	Health     HealthOptions
	HealthTick time.Duration

	Log *Log // optional decision trace

	// Check, when non-nil, runs after every simulation step; a non-nil
	// error aborts the run — how the property tests pin invariants at
	// every reachable state instead of only at the end.
	Check func(s *Scheduler) error
}

// SimReport summarizes one simulation run.
type SimReport struct {
	Placed    int // jobs admitted
	Rejected  int // jobs rejected with ErrOverloaded
	NoFit     int // jobs rejected with ErrNoFit (would spill in the engine)
	Completed int // jobs completed
	Failed    int // placed jobs resolved with a typed error by fault recovery
	Unsettled int // placed jobs never resolved — always zero (a hang otherwise)

	Steals     int64 // steal operations (from fleet.steals)
	StolenJobs int64
	BatchRuns  int64
	BatchJobs  int64

	// Fault-recovery counters (zero without a FaultSchedule).
	Requeued   int64 // jobs reclaimed from dead devices and re-placed
	Hedged     int64 // hedged re-executions launched for suspect batches
	Late       int64 // completions that arrived after recovery reclaimed them
	Transients int64 // retryable compute-error batches
	Suspects   int64 // suspect transitions
	Deaths     int64 // dead declarations
	Readmitted int64 // probation → healthy readmissions

	Reserved, Released, DoubleReleases int64 // scheduler ledger audit

	MaxUsed  []int64 // per-device observed peak ledger bytes
	EndUsed  []int64 // per-device ledger bytes after the run (all zero)
	Capacity []int64

	Elapsed time.Duration // simulated time
	Status  []DeviceStatus
}

// simKs are the sub-domain edges a simulated job stream draws from,
// weighted toward small jobs; the largest entries exceed the biggest
// simulated device so ErrNoFit paths are exercised too.
var simKs = []int{32, 32, 32, 32, 64, 64, 64, 128, 128, 512}

// errSimCrash is the death cause for a simulated device crash.
var errSimCrash = errors.New("fleet: simulated device crash")

// RunSim drives a Scheduler through a seeded synthetic workload on a
// simulated clock and returns the run's report. Everything — fleet
// shape, arrivals, batch durations, steal decisions, injected faults,
// health transitions — is a deterministic function of cfg. The loop is
// guarded against wedging: if pending work stops making progress the run
// errors instead of spinning, so "never hangs" is a checkable property.
func RunSim(cfg SimConfig) (*SimReport, error) {
	if cfg.Devices <= 0 {
		cfg.Devices = 4
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 64
	}
	if cfg.Boxes <= 0 {
		cfg.Boxes = 2
	}
	if cfg.N <= 0 {
		cfg.N = 1024
	}
	if cfg.FarRate <= 0 {
		cfg.FarRate = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	devs := make([]*gpu.Device, cfg.Devices)
	boxOf := make([]int, cfg.Devices)
	for i := range devs {
		// 2–8 GiB in 512 MiB steps: small enough that queue-depth × job
		// footprint overcommits memory, so admission really binds.
		capBytes := int64(4+rng.Intn(13)) * (gpu.GiB / 2)
		devs[i] = &gpu.Device{Name: fmt.Sprintf("sim%d", i), Capacity: capBytes}
		boxOf[i] = rng.Intn(cfg.Boxes)
	}
	clock := NewSimClock()
	s, err := NewScheduler(Options{
		Devices: devs, BoxOf: boxOf,
		N: cfg.N, FarRate: cfg.FarRate,
		QueueDepth: cfg.QueueDepth, MaxBatch: cfg.MaxBatch, StealMin: cfg.StealMin,
		Clock: clock, Log: cfg.Log, Health: cfg.Health,
	})
	if err != nil {
		return nil, err
	}

	type job struct {
		at time.Duration
		t  *Task
	}
	// One sink slot per job: the sim reads per-job outcomes (success vs
	// typed recovery failure) the same way the engine does — from the
	// sink, never from racing Task fields.
	sink := newResultSink(cfg.Jobs)
	jobs := make([]job, cfg.Jobs)
	at := time.Duration(0)
	for i := range jobs {
		at += time.Duration(rng.Intn(40)+1) * time.Millisecond
		k := simKs[rng.Intn(len(simKs))]
		jobs[i] = job{at: at, t: &Task{
			Tenant:    fmt.Sprintf("t%d", rng.Intn(3)),
			K:         k,
			Footprint: gpu.JobFootprint(cfg.N, k, cfg.FarRate),
			HomeBox:   rng.Intn(cfg.Boxes),
			Slot:      i,
			sink:      sink,
		}}
	}

	rep := &SimReport{
		MaxUsed:  make([]int64, cfg.Devices),
		EndUsed:  make([]int64, cfg.Devices),
		Capacity: make([]int64, cfg.Devices),
	}
	for i, d := range devs {
		rep.Capacity[i] = d.Capacity
	}

	busy := make([][]*Task, cfg.Devices) // nil = idle
	hung := make([]bool, cfg.Devices)    // batch wedged: no completion event
	trans := make([]bool, cfg.Devices)   // batch fails retryably at completion
	until := make([]time.Duration, cfg.Devices)
	dur := make([]time.Duration, cfg.Devices)
	disp := make([]uint64, cfg.Devices)
	probeN := make([]int, cfg.Devices)
	bufs := make([][]*Task, cfg.Devices)
	for i := range bufs {
		bufs[i] = make([]*Task, 0, 8)
	}
	var placed []*Task
	cost := s.cost
	now := time.Duration(0)
	next := 0 // next arrival index

	healthOn := cfg.Faults != nil || cfg.HealthTick > 0
	healthTick := cfg.HealthTick
	if healthTick <= 0 {
		healthTick = 5 * time.Millisecond
	}
	// nextHealth is event-driven: recomputed from the scheduler's own
	// deadlines after every step, -1 when no health event is pending. A
	// fixed tick would make the step count scale with deadline magnitude
	// (thousands of no-op ticks while a long batch runs) and trip the
	// wedge guard on runs that are slow but progressing.
	nextHealth := time.Duration(-1)
	epoch := clock.Now()
	rearmHealth := func() {
		nextHealth = -1
		if !healthOn {
			return
		}
		if ev, ok := s.NextHealthEvent(); ok {
			nh := ev.Sub(epoch)
			if nh <= now {
				nh = now + healthTick
			} else {
				nh += time.Nanosecond // deadlines use strict After
			}
			nextHealth = nh
		}
	}

	sample := func() error {
		for i, d := range devs {
			u := d.Used()
			if u > rep.MaxUsed[i] {
				rep.MaxUsed[i] = u
			}
			if u > d.Capacity {
				return fmt.Errorf("sim: device %d overcommitted: used %d > capacity %d", i, u, d.Capacity)
			}
		}
		if cfg.Check != nil {
			return cfg.Check(s)
		}
		return nil
	}

	pending := func() bool {
		if next < len(jobs) {
			return true
		}
		for i := range busy {
			if busy[i] != nil {
				return true
			}
		}
		for _, t := range placed {
			if !t.delivered {
				return true
			}
		}
		return false
	}

	// The step guard bounds the event count so a wedged scheduler is a
	// typed sim error, not an infinite loop — "never hangs" is checkable.
	maxSteps := cfg.Jobs*400 + 4000
	steps := 0

	for {
		// Next event: the earliest pending arrival, batch completion, or
		// (with supervision on and work outstanding) health tick.
		event := time.Duration(-1)
		if next < len(jobs) {
			event = jobs[next].at
		}
		for i := range busy {
			if busy[i] != nil && !hung[i] && (event < 0 || until[i] < event) {
				event = until[i]
			}
		}
		if healthOn && nextHealth >= 0 && pending() && (event < 0 || nextHealth < event) {
			event = nextHealth
		}
		if event < 0 {
			break // nothing can make progress
		}
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("sim: wedged after %d steps (seed %d): pending work stopped progressing", steps, cfg.Seed)
		}
		if event > now {
			clock.Advance(event - now)
			now = event
		}
		// Fixed phase order — completions, health, arrivals, dispatch — so
		// the decision sequence is seed-deterministic.
		for i := range busy {
			if busy[i] != nil && !hung[i] && until[i] <= now {
				if trans[i] {
					s.FailBatch(i, busy[i], nil, dur[i])
				} else {
					s.Complete(i, busy[i], dur[i])
					rep.Completed += len(busy[i])
				}
				busy[i], trans[i] = nil, false
			}
		}
		if healthOn && nextHealth >= 0 && now >= nextHealth {
			for _, di := range s.CheckHealth(clock.Now()) {
				ok := cfg.Faults.ProbeOK(di, probeN[di]) && devs[di].Probe() == nil
				probeN[di]++
				s.Probe(di, ok)
			}
			// A death reclaims the wedged batch and "resets" the device:
			// drop the sim's hung marker, never Complete it.
			for i := range busy {
				if hung[i] {
					if h := s.DeviceHealth(i); h != Healthy && h != Suspect {
						busy[i], hung[i] = nil, false
					}
				}
			}
		}
		for next < len(jobs) && jobs[next].at <= now {
			t := jobs[next].t
			next++
			if _, err := s.Enqueue(t); err != nil {
				switch {
				case errors.Is(err, ErrNoFit), errors.Is(err, ErrFleetDead):
					rep.NoFit++
				case errors.Is(err, ErrOverloaded):
					rep.Rejected++
				default:
					return nil, err
				}
				continue
			}
			placed = append(placed, t)
			rep.Placed++
		}
		for i := range busy {
			if busy[i] != nil {
				continue
			}
			b := s.NextBatch(i, bufs[i])
			if b == nil {
				continue
			}
			// The injected fault for this dispatch: first firing point
			// wins (the sim has no mid-execution, so the distinction
			// collapses to whether any point fires).
			kind := FaultNone
			if cfg.Faults != nil {
				for _, pt := range []FaultPoint{PointDispatch, PointMidBatch, PointCompletion} {
					if k := cfg.Faults.At(i, disp[i], pt); k != FaultNone {
						kind = k
						break
					}
				}
			}
			disp[i]++
			if kind == FaultCrash {
				s.ReportDeviceFailure(i, errSimCrash)
				continue
			}
			sec, err := batchSeconds(cost, cfg.N, b[0].K, cfg.FarRate, len(b))
			if err != nil {
				return nil, err
			}
			d := time.Duration(sec * float64(time.Second))
			if kind == FaultSlow {
				d = time.Duration(float64(d) * cfg.Faults.slowFactor())
			}
			if d <= 0 {
				d = time.Microsecond
			}
			busy[i], dur[i], until[i] = b, d, now+d
			switch kind {
			case FaultHang:
				hung[i] = true
			case FaultTransient:
				trans[i] = true
			}
		}
		rearmHealth()
		if err := sample(); err != nil {
			return nil, err
		}
	}

	for _, t := range placed {
		if !t.delivered {
			rep.Unsettled++
		} else if sink.errs[t.Slot] != nil {
			rep.Failed++
		}
	}
	rep.Steals = s.tr.CounterValue("fleet.steals")
	rep.StolenJobs = s.tr.CounterValue("fleet.stolen_jobs")
	rep.BatchRuns = s.tr.CounterValue("fleet.batch_runs")
	rep.BatchJobs = s.tr.CounterValue("fleet.batch_jobs")
	rep.Requeued = s.tr.CounterValue("fleet.requeued_jobs")
	rep.Hedged = s.tr.CounterValue("fleet.hedged_runs")
	rep.Late = s.tr.CounterValue("fleet.late_results")
	rep.Transients = s.tr.CounterValue("fleet.transient_retries")
	rep.Suspects = s.tr.CounterValue("fleet.health_suspect")
	rep.Deaths = s.tr.CounterValue("fleet.health_dead")
	rep.Readmitted = s.tr.CounterValue("fleet.health_readmitted")
	rep.Elapsed = now
	rep.Status = s.Status()
	// Close before the final audit: the drain resolves any stray hedge
	// clone still queued after its root delivered, so "no bytes left
	// reserved" is checked over the complete lifecycle.
	s.Close()
	rep.Reserved, rep.Released, rep.DoubleReleases = s.Audit()
	for i, d := range devs {
		rep.EndUsed[i] = d.Used()
	}
	return rep, nil
}

// SimClock is a manually-advanced clock. It is safe for concurrent use,
// but deterministic traces require single-threaded driving (RunSim).
// Production schedulers run on WallClock.
type SimClock struct {
	t atomic.Int64
}

// NewSimClock starts a simulated clock at the epoch.
func NewSimClock() *SimClock { return &SimClock{} }

// Now returns the current simulated instant.
func (c *SimClock) Now() time.Time { return time.Unix(0, c.t.Load()) }

// Advance moves the simulated clock forward by d (never backward).
func (c *SimClock) Advance(d time.Duration) {
	if d > 0 {
		c.t.Add(int64(d))
	}
}

// Enqueue places one task on the cheapest admissible device queue,
// reserving its footprint there. The returned index is the chosen
// device; the typed errors mirror serve's admission contract with
// per-device hints.
func (s *Scheduler) Enqueue(t *Task) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(t)
}

// NextBatch pops device di's next batch without blocking: up to MaxBatch
// queued jobs sharing the head job's k, stealing from the most-loaded
// sibling first when di's own queue is empty. Returns nil when there is
// nothing runnable on di. dst is reused as the batch backing array.
func (s *Scheduler) NextBatch(di int, dst []*Task) []*Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextBatchLocked(di, dst)
}

// CancelQueued removes a still-queued (or orphaned) task by ID,
// releasing any reservation it holds and delivering context.Canceled to
// its solve. It reports whether the task was found (false means a runner
// already owns it).
func (s *Scheduler) CancelQueued(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.devs {
		d := &s.devs[i]
		for j, t := range d.queue {
			if t.ID != id {
				continue
			}
			copy(d.queue[j:], d.queue[j+1:])
			d.queue[len(d.queue)-1] = nil
			d.queue = d.queue[:len(d.queue)-1]
			t.done = true
			d.dev.Release(t.Footprint)
			s.releasedBytes += t.Footprint
			s.cCancelled.Add(1)
			s.deliverLocked(t, nil, context.Canceled, -1)
			t.Job.Event(jobtrace.KindFail, i, "cancelled", 0)
			s.log.printf(s.clock.Now(), "cancel id=%d dev=%d", id, i)
			return true
		}
	}
	for j, t := range s.orphans {
		if t.ID != id {
			continue
		}
		copy(s.orphans[j:], s.orphans[j+1:])
		s.orphans[len(s.orphans)-1] = nil
		s.orphans = s.orphans[:len(s.orphans)-1]
		t.done = true // orphans hold no reservation: nothing to release
		s.cCancelled.Add(1)
		s.deliverLocked(t, nil, context.Canceled, -1)
		t.Job.Event(jobtrace.KindFail, -1, "cancelled", 0)
		s.log.printf(s.clock.Now(), "cancel id=%d orphan", id)
		return true
	}
	return false
}

// Audit returns the reservation ledger totals: bytes reserved at
// admission, bytes released at completion/cancellation, and the count of
// double completions (always 0 under correct use). reserved == released
// with every device's Used() at zero is the exactly-once-release
// invariant the property suite pins.
func (s *Scheduler) Audit() (reserved, released, doubleReleases int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reservedBytes, s.releasedBytes, s.doubleReleases
}

// DeviceHealth returns device di's current supervision state.
func (s *Scheduler) DeviceHealth(di int) Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.devs[di].health
}

// NextHealthEvent returns the earliest instant at which CheckHealth
// could change state — a running batch's suspect or dead deadline, or a
// quarantined device's next probe due time. ok is false when no health
// event is pending, so event-driven drivers (RunSim) can skip straight
// to the next meaningful check instead of polling.
func (s *Scheduler) NextHealthEvent() (at time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	add := func(t time.Time) {
		if !ok || t.Before(at) {
			at, ok = t, true
		}
	}
	for i := range s.devs {
		d := &s.devs[i]
		switch d.health {
		case Healthy:
			if len(d.running) > 0 {
				add(d.suspectAt)
			}
		case Suspect:
			if len(d.running) > 0 {
				add(d.deadAt)
			}
		case Dead, Probation:
			add(d.nextProbe)
		}
	}
	return at, ok
}

func (f *FaultSchedule) slowFactor() float64 {
	if f == nil || f.SlowFactor <= 0 {
		return 4
	}
	return f.SlowFactor
}

// batchSeconds models admitting `jobs` compatible k³ jobs as ONE batched
// run, the simulated duration of a batch: every job's pencil stage
// launches at the combined dial BatchDial·jobs, so per-launch utilization
// rises and launch gaps amortize across tenants — the §5.4 batch-dial
// gain applied across jobs. Because the utilization curve is monotone in
// work per launch, batchSeconds never exceeds jobs × ComputeSeconds (the
// amortization inequality TestPlacementCostMonotone pins against the
// gpu.DGX2BatchStudy rows).
func batchSeconds(m CostModel, n, k, far, jobs int) (float64, error) {
	if jobs < 1 {
		return 0, fmt.Errorf("fleet: batch of %d jobs", jobs)
	}
	per, err := m.Perf.GPULocalConvSeconds(n, k, far, m.BatchDial*jobs)
	if err != nil {
		return 0, err
	}
	return float64(jobs) * per, nil
}
