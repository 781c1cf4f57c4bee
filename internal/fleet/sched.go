package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/telemetry"
)

// devState is one device's scheduler-side state. Everything is guarded
// by the Scheduler mutex; the gpu.Device ledger has its own lock and is
// the single source of truth for bytes.
type devState struct {
	dev       *gpu.Device
	box       int
	queue     []*Task
	inflight  int
	ewmaNanos int64
	steals    int64
	gQueue    *obs.Gauge

	// Health supervision (see health.go). running mirrors the dispatched
	// tasks so death recovery can reclaim the in-flight batch; reset is
	// closed when the device dies, freeing a wedged runner.
	health    Health
	suspectAt time.Time
	deadAt    time.Time
	nextProbe time.Time
	probeOKs  int
	requeued  int64
	running   []*Task
	reset     chan struct{}

	// penaltyUntil prices distrust into placement after readmission: a
	// device that just cleared its probe streak keeps the CostModel's
	// HealthPenalty multiplier until this instant, so it cannot win ties
	// against proven-Healthy peers on the strength of one good probe.
	penaltyUntil time.Time
}

// Scheduler is the fleet placement core: a deterministic state machine
// behind one mutex. serve.Engine uses Place/Release/Observe as its
// multi-device admission ledger; the fleet Engine drives the full
// queue/steal/batch API.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	devs       []devState
	n, far     int
	queueDepth int
	maxBatch   int
	stealMin   int
	cost       CostModel
	clock      Clock
	log        *Log
	tr         *obs.Trace
	closed     bool
	nextID     uint64

	health  HealthOptions
	orphans []*Task // tasks reclaimed from dead devices awaiting re-placement
	flight  *telemetry.Recorder

	// ex is the placement-explain scratch: filled under mu while scoring a
	// traced placement, copied into the job's ring before the next
	// decision reuses it. Keeping it here (not on the stack) keeps the
	// allocation-free placement contract.
	ex jobtrace.Explain

	// Ledger audit (exactly-once release): admission adds to reserved,
	// completion/cancellation to released; reservation migration during a
	// steal is neutral. doubleReleases counts Complete calls on a task
	// already completed — always zero unless the caller misuses the API.
	reservedBytes  int64
	releasedBytes  int64
	doubleReleases int64

	cPlaced, cRejected, cCompleted, cCancelled *obs.Counter
	cSteals, cStolenJobs                       *obs.Counter
	cBatchRuns, cBatchJobs                     *obs.Counter
	gQueueAll, gInflight                       *obs.Gauge

	cSuspect, cDead, cProbes, cReadmit *obs.Counter
	cRequeued, cHedged, cFailed        *obs.Counter
	cLate, cTransient                  *obs.Counter
	cPlacementRejects                  *obs.Counter
}

// NewScheduler validates the fleet and builds the scheduler.
func NewScheduler(opts Options) (*Scheduler, error) {
	if len(opts.Devices) == 0 {
		return nil, fmt.Errorf("fleet: empty device fleet")
	}
	if len(opts.Devices) > 64 {
		return nil, fmt.Errorf("fleet: %d devices exceeds the 64-device cap", len(opts.Devices))
	}
	if opts.BoxOf != nil && len(opts.BoxOf) != len(opts.Devices) {
		return nil, fmt.Errorf("fleet: BoxOf has %d entries for %d devices", len(opts.BoxOf), len(opts.Devices))
	}
	if opts.N <= 0 {
		return nil, fmt.Errorf("fleet: grid edge N=%d must be positive", opts.N)
	}
	s := &Scheduler{
		n:          opts.N,
		far:        opts.FarRate,
		queueDepth: opts.QueueDepth,
		maxBatch:   opts.MaxBatch,
		stealMin:   opts.StealMin,
		cost:       CostModel{}.withDefaults(),
		clock:      opts.Clock,
		log:        opts.Log,
		tr:         opts.Trace,
		health:     opts.Health.withDefaults(),
		flight:     opts.Flight,
	}
	if s.far <= 0 {
		s.far = 16
	}
	if s.queueDepth <= 0 {
		s.queueDepth = 16
	}
	if s.maxBatch <= 0 {
		s.maxBatch = 4
	}
	if s.stealMin <= 0 {
		s.stealMin = 1
	}
	if s.clock == nil {
		s.clock = WallClock{}
	}
	if s.tr == nil {
		s.tr = obs.New()
	}
	s.cond = sync.NewCond(&s.mu)
	s.devs = make([]devState, len(opts.Devices))
	for i, d := range opts.Devices {
		if d == nil {
			return nil, fmt.Errorf("fleet: nil device at index %d", i)
		}
		box := 0
		if opts.BoxOf != nil {
			box = opts.BoxOf[i]
		}
		s.devs[i] = devState{
			dev: d, box: box,
			gQueue: s.tr.Gauge(fmt.Sprintf("fleet.dev%d.queue_depth", i)),
			reset:  make(chan struct{}),
		}
	}
	s.cPlaced = s.tr.Counter("fleet.jobs_placed")
	s.cRejected = s.tr.Counter("fleet.jobs_rejected")
	s.cCompleted = s.tr.Counter("fleet.jobs_completed")
	s.cCancelled = s.tr.Counter("fleet.jobs_cancelled")
	s.cSteals = s.tr.Counter("fleet.steals")
	s.cStolenJobs = s.tr.Counter("fleet.stolen_jobs")
	s.cBatchRuns = s.tr.Counter("fleet.batch_runs")
	s.cBatchJobs = s.tr.Counter("fleet.batch_jobs")
	s.gQueueAll = s.tr.Gauge("fleet.queue_depth")
	s.gInflight = s.tr.Gauge("fleet.inflight")
	s.cSuspect = s.tr.Counter("fleet.health_suspect")
	s.cDead = s.tr.Counter("fleet.health_dead")
	s.cProbes = s.tr.Counter("fleet.health_probes")
	s.cReadmit = s.tr.Counter("fleet.health_readmitted")
	s.cRequeued = s.tr.Counter("fleet.requeued_jobs")
	s.cHedged = s.tr.Counter("fleet.hedged_runs")
	s.cFailed = s.tr.Counter("fleet.failed_jobs")
	s.cLate = s.tr.Counter("fleet.late_results")
	s.cTransient = s.tr.Counter("fleet.transient_retries")
	s.cPlacementRejects = s.tr.Counter("fleet.placement_rejects")
	return s, nil
}

// Trace returns the scheduler's metrics trace.
func (s *Scheduler) Trace() *obs.Trace { return s.tr }

// Devices returns the fleet size.
func (s *Scheduler) Devices() int { return len(s.devs) }

// Footprint prices a k³ job on this scheduler's grid.
func (s *Scheduler) Footprint(k int) int64 { return gpu.JobFootprint(s.n, k, s.far) }

// costLocked prices placing a k³ job homed in homeBox on device di. The
// tenant weight divides the EWMA-backlog term — a weight-w tenant
// discounts queue wait by 1/w, so its jobs spread onto busier devices
// sooner and its backlog drains faster fleet-wide; weight 1 (or ≤0) is
// the unweighted Eq. 2 cost exactly. penalized reports whether the
// health multiplier applied: the device is not Healthy, or it was
// readmitted so recently that its penalty window (penaltyUntil) is
// still open.
func (s *Scheduler) costLocked(k, homeBox, di int, weight float64, now time.Time) (cost float64, penalized bool, err error) {
	d := &s.devs[di]
	backlog := len(d.queue) + d.inflight
	ewmaSec := float64(d.ewmaNanos) / 1e9
	if weight > 0 {
		ewmaSec /= weight
	}
	c, err := s.cost.PlacementSeconds(s.n, k, s.far, d.box != homeBox, backlog, ewmaSec)
	if err != nil {
		return 0, false, err
	}
	if d.health != Healthy || now.Before(d.penaltyUntil) {
		return c * s.cost.HealthPenalty, true, nil
	}
	return c, false, nil
}

// taskWeight normalizes a task's tenant weight for cost scaling.
func taskWeight(t *Task) float64 {
	if t == nil || t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// overloadLocked builds the typed rejection for a job no device can admit
// right now: the hint names the capacity-fitting device with the
// shortest modeled wait (its own EWMA × its own backlog — per-device
// hints, the PR 7 fix for the single-queue EWMA lie). Only live devices
// are priced: a dead device's capacity and backlog must not shape
// RetryAfter, and when no live device can ever fit the footprint the
// rejection is the typed ErrNoFit (or ErrFleetDead with nothing live).
func (s *Scheduler) overloadLocked(footprint int64, memoryReason bool) error {
	if s.liveLocked() == 0 {
		return s.fleetDeadLocked()
	}
	best, bestWait := -1, time.Duration(0)
	for i := range s.devs {
		if s.devs[i].health != Healthy && s.devs[i].health != Suspect {
			continue
		}
		if footprint > s.devs[i].dev.Capacity {
			continue
		}
		w := s.retryAfterLocked(i)
		if best < 0 || w < bestWait {
			best, bestWait = i, w
		}
	}
	if best < 0 {
		return fmt.Errorf("%w: footprint %d exceeds every live capacity (max %d): %w",
			ErrNoFit, footprint, gpu.MaxCapacity(s.deviceSlice()), gpu.ErrOutOfMemory)
	}
	oe := &OverloadError{
		Device: best, Name: s.devs[best].dev.Name,
		QueueDepth: len(s.devs[best].queue),
		RetryAfter: bestWait,
	}
	if memoryReason {
		oe.Reason = "device memory"
		oe.Cause = gpu.ErrOutOfMemory
	} else {
		oe.Reason = "queue full"
	}
	return oe
}

func (s *Scheduler) deviceSlice() []*gpu.Device {
	out := make([]*gpu.Device, len(s.devs))
	for i := range s.devs {
		out[i] = s.devs[i].dev
	}
	return out
}

// retryAfterLocked is device di's wait hint: its smoothed job duration
// times its backlog (queued + running + the caller's job).
func (s *Scheduler) retryAfterLocked(di int) time.Duration {
	d := &s.devs[di]
	mean := time.Duration(d.ewmaNanos)
	if mean <= 0 {
		mean = time.Millisecond
	}
	return mean * time.Duration(len(d.queue)+d.inflight+1)
}

// Place reserves footprint for one k³ job on the cheapest admissible
// device and returns its index — the queue-less admission path
// serve.Engine charges jobs through (serve keeps its own tenant-fair
// queue; the fleet supplies the multi-device ledger and per-device
// hints). Every successful Place must be paired with exactly one
// Release.
func (s *Scheduler) Place(k int, footprint int64, homeBox int) (int, error) {
	return s.PlaceWeighted(k, footprint, homeBox, 1, nil)
}

// PlaceWeighted is Place carrying the tenant's dispatch weight into the
// Eq. 2 cost and recording the decision on a job timeline. The weight
// divides each device's EWMA-backlog term, so a weight-w tenant's jobs
// see queue wait at 1/w and its backlog drains faster fleet-wide; weight
// ≤ 0 (and exactly 1) price identically to Place. The timeline gets the
// winning device with its Eq. 2 cost, plus every scored or rejected
// alternative (typed reject reasons), so each placement is explainable
// after the fact. A nil job traces nothing; the hot path stays
// allocation-free either way (the explain scratch lives in the scheduler).
func (s *Scheduler) PlaceWeighted(k int, footprint int64, homeBox int, weight float64, j *jobtrace.Job) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return -1, ErrClosed
	}
	var tried uint64
	for {
		ex := s.explainFor(j)
		di, cost, _ := s.bestExplainLocked(k, footprint, homeBox, false, tried, weight, ex)
		if di < 0 {
			s.cRejected.Add(1)
			return -1, s.overloadLocked(footprint, true)
		}
		if err := s.devs[di].dev.Reserve(footprint); err != nil {
			tried |= 1 << uint(di) // raced an external allocation; try the next device
			continue
		}
		s.reservedBytes += footprint
		s.devs[di].inflight++
		s.gInflight.Max(s.inflightLocked())
		s.cPlaced.Add(1)
		j.Place(di, cost, ex)
		return di, nil
	}
}

// explainFor resets and returns the scheduler's explain scratch for a
// traced decision, nil for an untraced one (no wasted classification).
func (s *Scheduler) explainFor(j *jobtrace.Job) *jobtrace.Explain {
	if j == nil {
		return nil
	}
	s.ex.Reset()
	return &s.ex
}

// bestExplainLocked selects the cheapest admissible device outside the
// tried bitmask (ties break toward the lower index: placement is a pure
// function of scheduler state), classifying every candidate it passes
// over: each rejection ticks the fleet.placement_rejects counter with a
// typed reason (dead, probation, no-fit, suspect, memory, queue-full), and
// — when ex is non-nil — lands in the explain scratch alongside the scored
// losers' Eq. 2 costs.
//
// Health prices into the decision instead of merely gating it. Dead
// devices are never selectable. On the queue path (forQueue) Probation
// and Suspect devices stay unselectable too — neither dispatches new
// batches, so queueing to them strands the task. On the reservation-only
// Place path they ARE scored, at costLocked's HealthPenalty-multiplied
// price, so a distrusted device never beats an otherwise-identical
// Healthy peer but still absorbs load once every trusted device is
// saturated. Freshly-readmitted devices keep the penalty on both paths
// until their penaltyUntil window closes; each penalized candidate that
// loses its placement ticks fleet.placement_rejects (reason: penalized).
//
// fits reports capacity over the fleet the caller could ever use, so a
// footprint only a dead device could hold is a typed no-fit, not an
// eternal wait.
func (s *Scheduler) bestExplainLocked(k int, footprint int64, homeBox int, forQueue bool, tried uint64, weight float64, ex *jobtrace.Explain) (int, float64, bool) {
	best, bestCost, fits := -1, 0.0, false
	now := s.clock.Now()
	var penalized uint64
	reject := func(i int, r jobtrace.Reject) {
		s.cPlacementRejects.Add(1)
		if ex != nil {
			ex.Add(i, 0, r)
		}
	}
	for i := range s.devs {
		if tried&(1<<uint(i)) != 0 {
			// A raced reservation retry, not a scheduling rejection: kept
			// out of the reject counter, visible in the explain.
			if ex != nil {
				ex.Add(i, 0, jobtrace.RejectTried)
			}
			continue
		}
		d := &s.devs[i]
		if d.health == Dead {
			reject(i, jobtrace.RejectDead)
			continue
		}
		if d.health == Probation && forQueue {
			reject(i, jobtrace.RejectProbation)
			continue
		}
		if footprint > d.dev.Capacity {
			reject(i, jobtrace.RejectNoFit)
			continue
		}
		fits = true
		if d.health == Suspect && forQueue {
			reject(i, jobtrace.RejectSuspect)
			continue
		}
		if footprint > d.dev.Free() {
			reject(i, jobtrace.RejectMemory)
			continue
		}
		if forQueue && len(d.queue) >= s.queueDepth {
			reject(i, jobtrace.RejectQueueFull)
			continue
		}
		c, penal, err := s.costLocked(k, homeBox, i, weight, now)
		if err != nil {
			reject(i, jobtrace.RejectNoFit)
			continue
		}
		if penal {
			penalized |= 1 << uint(i)
		}
		if ex != nil {
			ex.Add(i, c, jobtrace.RejectNone)
		}
		if best < 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	if penalized != 0 {
		if best >= 0 {
			penalized &^= 1 << uint(best)
		}
		s.cPlacementRejects.Add(int64(bits.OnesCount64(penalized)))
	}
	return best, bestCost, fits
}

// Release returns a Place reservation to device di's ledger. Freed
// capacity re-places any tasks orphaned by a device death.
func (s *Scheduler) Release(di int, footprint int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.devs[di].dev.Release(footprint)
	s.releasedBytes += footprint
	if s.devs[di].inflight > 0 {
		s.devs[di].inflight--
	}
	s.cCompleted.Add(1)
	if len(s.orphans) > 0 {
		s.admitOrphansLocked(s.clock.Now())
	}
	s.cond.Broadcast()
}

// Observe folds one finished job's duration into device di's EWMA — the
// basis of that device's RetryAfter hint.
func (s *Scheduler) Observe(di int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observeLocked(di, d)
}

func (s *Scheduler) observeLocked(di int, d time.Duration) {
	old := s.devs[di].ewmaNanos
	nw := int64(d)
	if old != 0 {
		nw = old + (int64(d)-old)/8
	}
	s.devs[di].ewmaNanos = nw
}

// EnqueueBlocking places one task on the cheapest admissible device
// queue, reserving its footprint there, and returns the chosen device.
// The typed errors mirror serve's admission contract with per-device
// hints, but with backpressure: an overloaded fleet blocks the caller
// until capacity frees instead of rejecting — how the
// Engine feeds a solve's full job list through bounded queues. The wait
// ends early when ctx is cancelled (returning ctx.Err()) and never
// starts for a footprint no live device can ever fit — that fast-fails
// with the typed ErrNoFit/ErrFleetDead instead of blocking forever.
func (s *Scheduler) EnqueueBlocking(ctx context.Context, t *Task) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stop chan struct{}
	defer func() {
		if stop != nil {
			close(stop)
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return -1, err
		}
		di, err := s.enqueueLocked(t)
		if err == nil || !errors.Is(err, ErrOverloaded) {
			return di, err
		}
		if stop == nil && ctx.Done() != nil {
			// The watcher takes the scheduler mutex before broadcasting,
			// and this goroutine holds it until cond.Wait parks — so a
			// cancellation can never slip between the check above and the
			// wait below.
			stop = make(chan struct{})
			go func() {
				select {
				case <-ctx.Done():
					s.mu.Lock()
					s.cond.Broadcast()
					s.mu.Unlock()
				case <-stop:
				}
			}()
		}
		s.cond.Wait()
	}
}

func (s *Scheduler) enqueueLocked(t *Task) (int, error) {
	if s.closed {
		return -1, ErrClosed
	}
	if t.ID == 0 {
		s.nextID++
		t.ID = s.nextID
	}
	var tried uint64
	for {
		ex := s.explainFor(t.Job)
		di, cost, fits := s.bestExplainLocked(t.K, t.Footprint, t.HomeBox, true, tried, taskWeight(t), ex)
		if di < 0 {
			s.cRejected.Add(1)
			if !fits {
				return -1, s.overloadLocked(t.Footprint, true)
			}
			// Distinguish queue-full from memory: a capacity-fitting
			// device with queue room means memory was the binding
			// constraint.
			memory := false
			for i := range s.devs {
				if t.Footprint <= s.devs[i].dev.Capacity && len(s.devs[i].queue) < s.queueDepth {
					memory = true
					break
				}
			}
			return -1, s.overloadLocked(t.Footprint, memory)
		}
		if err := s.devs[di].dev.Reserve(t.Footprint); err != nil {
			tried |= 1 << uint(di)
			continue
		}
		s.reservedBytes += t.Footprint
		t.dev = di
		t.done = false
		s.devs[di].queue = append(s.devs[di].queue, t)
		s.devs[di].gQueue.Max(int64(len(s.devs[di].queue)))
		s.gQueueAll.Max(s.queuedLocked())
		s.cPlaced.Add(1)
		t.Job.Place(di, cost, ex)
		t.Job.Event(jobtrace.KindQueue, di, "", int64(len(s.devs[di].queue)))
		s.log.printf(s.clock.Now(), "submit id=%d tenant=%s k=%d fp=%d dev=%d cost=%.6e",
			t.ID, t.Tenant, t.K, t.Footprint, di, cost)
		s.cond.Broadcast()
		return di, nil
	}
}

func (s *Scheduler) queuedLocked() int64 {
	var q int64
	for i := range s.devs {
		q += int64(len(s.devs[i].queue))
	}
	return q
}

func (s *Scheduler) inflightLocked() int64 {
	var q int64
	for i := range s.devs {
		q += int64(s.devs[i].inflight)
	}
	return q
}

// WaitBatch blocks until a batch is runnable on di or the scheduler
// closes (nil) — the device-runner loop of the fleet Engine.
func (s *Scheduler) WaitBatch(di int, dst []*Task) []*Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if b := s.nextBatchLocked(di, dst); b != nil {
			return b
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

func (s *Scheduler) nextBatchLocked(di int, dst []*Task) []*Task {
	d := &s.devs[di]
	if d.health != Healthy {
		// Suspect devices finish what they have; dead/probation devices
		// dispatch nothing until a probe streak readmits them.
		return nil
	}
	if len(d.queue) == 0 {
		s.stealLocked(di)
	}
	// Drop stale clones first: an attempt whose slot another attempt
	// already landed is dead work — release it here instead of burning
	// the device on it.
	live := d.queue[:0]
	for _, t := range d.queue {
		if t.origin != nil && t.origin.delivered && !t.done {
			t.done = true
			d.dev.Release(t.Footprint)
			s.releasedBytes += t.Footprint
			s.cCancelled.Add(1)
			continue
		}
		live = append(live, t)
	}
	for i := len(live); i < len(d.queue); i++ {
		d.queue[i] = nil
	}
	d.queue = live
	if len(d.queue) == 0 {
		return nil
	}
	k := d.queue[0].K
	batch := dst[:0]
	kept := d.queue[:0]
	for _, t := range d.queue {
		if t.K == k && len(batch) < s.maxBatch {
			batch = append(batch, t)
		} else {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(d.queue); i++ {
		d.queue[i] = nil
	}
	d.queue = kept
	d.inflight += len(batch)
	d.running = append(d.running, batch...)
	for _, t := range batch {
		t.Job.Event(jobtrace.KindBatch, di, "", int64(len(batch)))
	}
	now := s.clock.Now()
	s.armDeadlineLocked(di, len(batch), now)
	s.gInflight.Max(s.inflightLocked())
	s.cBatchRuns.Add(1)
	s.cBatchJobs.Add(int64(len(batch)))
	s.log.printf(now, "batch dev=%d k=%d jobs=%d head=%d", di, k, len(batch), batch[0].ID)
	return batch
}

// stealLocked migrates work to idle device di: pick the sibling with the
// longest queue (≥ StealMin, ties to the lower index) and move the newer
// half of its queue — tasks whose footprint di's ledger can admit; each
// move releases the victim's reservation and reserves on the thief, so
// the no-overcommit invariant holds through migration.
func (s *Scheduler) stealLocked(di int) {
	victim, vlen := -1, 0
	for i := range s.devs {
		if i == di {
			continue
		}
		if l := len(s.devs[i].queue); l >= s.stealMin && l > vlen {
			victim, vlen = i, l
		}
	}
	if victim < 0 {
		return
	}
	v := &s.devs[victim]
	want := (vlen + 1) / 2
	if want > s.maxBatch {
		want = s.maxBatch
	}
	start := vlen - want
	moved := 0
	keep := v.queue[:start]
	for _, t := range v.queue[start:] {
		if t.Footprint > s.devs[di].dev.Free() {
			keep = append(keep, t)
			continue
		}
		if err := s.devs[di].dev.Reserve(t.Footprint); err != nil {
			keep = append(keep, t)
			continue
		}
		v.dev.Release(t.Footprint)
		t.dev = di
		s.devs[di].queue = append(s.devs[di].queue, t)
		t.Job.Event(jobtrace.KindSteal, di, "", int64(victim))
		moved++
	}
	for i := len(keep); i < len(v.queue); i++ {
		v.queue[i] = nil
	}
	v.queue = keep
	if moved > 0 {
		s.devs[di].steals++
		s.cSteals.Add(1)
		s.cStolenJobs.Add(int64(moved))
		s.devs[di].gQueue.Max(int64(len(s.devs[di].queue)))
		s.log.printf(s.clock.Now(), "steal thief=%d victim=%d moved=%d left=%d", di, victim, moved, len(v.queue))
	}
}

// Complete releases a finished batch: exactly one ledger release per
// task, the device EWMA fed the per-job share of the batch duration, and
// each task's result (the runner wrote t.Result/t.Err on the attempt it
// owns) delivered to its solve — first attempt to land a slot wins. A
// task already reclaimed by fault recovery is a late result: dropped and
// counted, never double-released.
func (s *Scheduler) Complete(di int, batch []*Task, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	per := d
	if len(batch) > 0 {
		per = d / time.Duration(len(batch))
	}
	for _, t := range batch {
		if t.done {
			if t.reclaimed {
				s.cLate.Add(1)
				s.log.printf(now, "late id=%d dev=%d", t.ID, di)
			} else {
				s.doubleReleases++
			}
			continue
		}
		t.done = true
		s.devs[t.dev].dev.Release(t.Footprint)
		s.releasedBytes += t.Footprint
		if s.devs[t.dev].inflight > 0 {
			s.devs[t.dev].inflight--
		}
		removeRunning(&s.devs[t.dev], t)
		s.cCompleted.Add(1)
		if o := t.root(); !o.delivered {
			// This attempt wins its slot. Its event goes in before the
			// delivery fires the solve's latch, after which the solve may
			// stamp its accumulation at once.
			if t.Err != nil {
				t.Job.Event(jobtrace.KindFail, di, "compute", 0)
			} else {
				t.Job.Event(jobtrace.KindComplete, di, "", 0)
			}
			s.deliverLocked(t, t.Result, t.Err, di)
			// A still-pending hedge of the same root is wasted work —
			// take it back out of the queue.
			s.cancelCloneLocked(o.hedge)
		}
	}
	dv := &s.devs[di]
	if dv.health == Suspect && len(dv.running) == 0 {
		dv.health = Healthy
		s.flight.Health(di, "healthy", "suspect batch completed")
		s.log.printf(now, "recovered dev=%d", di)
	}
	s.observeLocked(di, per)
	s.admitOrphansLocked(now)
	s.log.printf(now, "done dev=%d jobs=%d per=%.6e", di, len(batch), per.Seconds())
	s.cond.Broadcast()
}

// removeRunning drops t from d's in-flight mirror.
func removeRunning(d *devState, t *Task) {
	for i, r := range d.running {
		if r == t {
			copy(d.running[i:], d.running[i+1:])
			d.running[len(d.running)-1] = nil
			d.running = d.running[:len(d.running)-1]
			return
		}
	}
}

// errTransient wraps a runner-reported retryable compute error.
var errTransient = errors.New("fleet: transient compute error")

// FailBatch reports a batch that died to a retryable compute error: the
// device stays healthy, every task's reservation is released exactly
// once, and each task is requeued as a fresh attempt (bounded by
// HealthOptions.MaxAttempts, after which the job fails typed).
func (s *Scheduler) FailBatch(di int, batch []*Task, cause error, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	if cause == nil {
		cause = errTransient
	}
	for _, t := range batch {
		if t.done {
			if t.reclaimed {
				s.cLate.Add(1)
			} else {
				s.doubleReleases++
			}
			continue
		}
		t.done, t.reclaimed = true, true
		s.devs[t.dev].dev.Release(t.Footprint)
		s.releasedBytes += t.Footprint
		if s.devs[t.dev].inflight > 0 {
			s.devs[t.dev].inflight--
		}
		removeRunning(&s.devs[t.dev], t)
		s.cTransient.Add(1)
		t.Job.Event(jobtrace.KindRetry, di, "", int64(t.attempt+1))
		s.requeueLocked(t, now, cause)
	}
	dv := &s.devs[di]
	if dv.health == Suspect && len(dv.running) == 0 {
		dv.health = Healthy
		s.flight.Health(di, "healthy", "suspect batch resolved")
		s.log.printf(now, "recovered dev=%d", di)
	}
	if d > 0 {
		s.observeLocked(di, d)
	}
	s.admitOrphansLocked(now)
	s.log.printf(now, "failbatch dev=%d jobs=%d cause=%v", di, len(batch), cause)
	s.cond.Broadcast()
}

// Close drains the scheduler: every queued, in-flight, and orphaned task
// is resolved with ErrClosed (its reservation released exactly once),
// every reset channel fires so wedged runners unblock, and every blocked
// WaitBatch/EnqueueBlocking waiter wakes. Idempotent — a second Close is
// a no-op. In-flight tasks are marked reclaimed, so a runner's later
// Complete is dropped as a late result, never a double release.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for i := range s.devs {
		d := &s.devs[i]
		if d.reset != nil {
			close(d.reset)
			d.reset = nil
		}
		for _, t := range d.queue {
			t.done = true
			d.dev.Release(t.Footprint)
			s.releasedBytes += t.Footprint
			s.deliverLocked(t, nil, ErrClosed, -1)
		}
		d.queue = nil
		for _, t := range d.running {
			if t.done {
				continue
			}
			t.done, t.reclaimed = true, true
			d.dev.Release(t.Footprint)
			s.releasedBytes += t.Footprint
			if d.inflight > 0 {
				d.inflight--
			}
			s.deliverLocked(t, nil, ErrClosed, -1)
		}
		d.running = nil
	}
	for _, t := range s.orphans {
		if t.done {
			continue
		}
		t.done = true
		s.deliverLocked(t, nil, ErrClosed, -1)
	}
	s.orphans = nil
	s.cond.Broadcast()
}
