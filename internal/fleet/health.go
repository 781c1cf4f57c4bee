package fleet

import (
	"errors"
	"fmt"
	"time"

	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/sample"
)

// ErrFleetDead is returned when every device in the fleet is dead or
// quarantined: no placement can succeed until a probe readmits a device.
// The fleet Engine reacts by spilling the solve to the distributed
// cluster path; serve surfaces it to callers (and the wire protocol maps
// it to StatusFleetDead).
var ErrFleetDead = errors.New("fleet: no live device")

// ErrRetriesExhausted is delivered to a job whose every execution
// attempt was lost to device faults — the bound that keeps a fault storm
// from requeueing a job forever.
var ErrRetriesExhausted = errors.New("fleet: job retries exhausted")

// errDeviceHung is the death cause recorded when the health monitor
// declares a device dead from a missed batch deadline (vs an explicit
// crash report from its runner).
var errDeviceHung = errors.New("fleet: device hung past its batch deadline")

// Health is a device's supervision state.
type Health uint8

const (
	// Healthy devices accept placements and run batches.
	Healthy Health = iota
	// Suspect devices missed their batch deadline: no new placements,
	// their in-flight tasks get hedged re-executions, and they either
	// complete (back to Healthy) or miss the dead deadline too.
	Suspect
	// Dead devices are quarantined: queue and in-flight reservations were
	// reconciled back through the ledger and re-placed on survivors.
	Dead
	// Probation devices passed some readmission probes but not yet the
	// required streak; still not placeable.
	Probation
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Probation:
		return "probation"
	default:
		return "health(?)"
	}
}

// HealthOptions tunes the per-device health monitor. The zero value gets
// defaults; a scheduler whose driver never calls CheckHealth (serve's
// queue-less admission path) keeps every device Healthy forever.
type HealthOptions struct {
	// SuspectFactor scales the per-batch deadline: a dispatched batch is
	// expected within SuspectFactor × EWMA × batch-size (≤0: 4).
	SuspectFactor float64
	// DeadFactor extends the suspect window before declaring death: a
	// suspect device is dead after (1+DeadFactor) × the suspect window
	// (≤0: 1 — death at twice the suspect deadline).
	DeadFactor float64
	// MinDeadline floors the suspect window, covering the cold start
	// before any EWMA exists (≤0: 20ms).
	MinDeadline time.Duration
	// ProbeEvery is the quarantine probe cadence (≤0: 50ms).
	ProbeEvery time.Duration
	// ProbeSuccesses is the consecutive-OK probe streak that readmits a
	// dead device (≤0: 2).
	ProbeSuccesses int
	// MaxAttempts bounds a job's execution attempts across fault
	// recoveries before it fails with ErrRetriesExhausted (≤0: 4).
	MaxAttempts int
	// ReadmitPenalty is how long a freshly-readmitted device keeps the
	// CostModel.HealthPenalty price multiplier after its probe streak
	// promotes it back to Healthy — long enough for real completions to
	// rebuild trust before it wins ties against proven peers (≤0: 250ms).
	ReadmitPenalty time.Duration
}

func (h HealthOptions) withDefaults() HealthOptions {
	if h.SuspectFactor <= 0 {
		h.SuspectFactor = 4
	}
	if h.DeadFactor <= 0 {
		h.DeadFactor = 1
	}
	if h.MinDeadline <= 0 {
		h.MinDeadline = 20 * time.Millisecond
	}
	if h.ProbeEvery <= 0 {
		h.ProbeEvery = 50 * time.Millisecond
	}
	if h.ProbeSuccesses <= 0 {
		h.ProbeSuccesses = 2
	}
	if h.MaxAttempts <= 0 {
		h.MaxAttempts = 4
	}
	if h.ReadmitPenalty <= 0 {
		h.ReadmitPenalty = 250 * time.Millisecond
	}
	return h
}

// Now returns the scheduler clock's current reading — what drivers pass
// back into CheckHealth.
func (s *Scheduler) Now() time.Time { return s.clock.Now() }

// closedChan is returned by ResetChan for a device whose reset already
// fired (dead or scheduler closed): a wedged runner unblocks immediately.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// ResetChan returns the channel a hung runner blocks on: it is closed
// when the device is declared dead (or the scheduler closes), standing in
// for the device reset that frees a wedged stream in real deployments.
func (s *Scheduler) ResetChan(di int) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.devs[di].reset == nil {
		return closedChan
	}
	return s.devs[di].reset
}

// liveLocked counts devices that can still make progress (Healthy or
// Suspect — suspects may recover; Dead/Probation need a probe streak).
func (s *Scheduler) liveLocked() int {
	n := 0
	for i := range s.devs {
		if s.devs[i].health == Healthy || s.devs[i].health == Suspect {
			n++
		}
	}
	return n
}

func (s *Scheduler) fleetDeadLocked() error {
	return fmt.Errorf("%w: all %d devices dead or quarantined", ErrFleetDead, len(s.devs))
}

// suspectWindowLocked is the deadline window for a batch of n jobs on
// device di: SuspectFactor × EWMA × n, floored at MinDeadline.
func (s *Scheduler) suspectWindowLocked(di, n int) time.Duration {
	w := time.Duration(s.health.SuspectFactor * float64(s.devs[di].ewmaNanos) * float64(n))
	if w < s.health.MinDeadline {
		w = s.health.MinDeadline
	}
	return w
}

// armDeadlineLocked starts device di's batch deadline clock for a batch
// of n jobs dispatched at now.
func (s *Scheduler) armDeadlineLocked(di, n int, now time.Time) {
	w := s.suspectWindowLocked(di, n)
	d := &s.devs[di]
	d.suspectAt = now.Add(w)
	d.deadAt = now.Add(w + time.Duration(s.health.DeadFactor*float64(w)))
}

// CheckHealth advances the health state machine to now and returns the
// quarantined devices due for a readmission probe; the caller performs
// each probe and reports it via Probe. Drivers call it periodically — the
// Engine from its monitor goroutine, the tests' RunSim from its event
// loop.
func (s *Scheduler) CheckHealth(now time.Time) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var probes []int
	for i := range s.devs {
		d := &s.devs[i]
		switch d.health {
		case Healthy:
			if len(d.running) > 0 && now.After(d.suspectAt) {
				d.health = Suspect
				s.cSuspect.Add(1)
				s.flight.Health(i, "suspect", "missed batch deadline")
				s.log.printf(now, "suspect dev=%d inflight=%d", i, len(d.running))
				s.hedgeLocked(i, now)
			}
		case Suspect:
			if len(d.running) == 0 {
				d.health = Healthy
				s.flight.Health(i, "healthy", "in-flight drained")
				s.log.printf(now, "recovered dev=%d", i)
			} else if now.After(d.deadAt) {
				s.declareDeadLocked(i, now, errDeviceHung)
			}
		case Dead, Probation:
			if !now.Before(d.nextProbe) {
				probes = append(probes, i)
				d.nextProbe = now.Add(s.health.ProbeEvery)
			}
		}
	}
	if len(probes) > 0 {
		s.cProbes.Add(int64(len(probes)))
	}
	return probes
}

// Probe reports a readmission probe's outcome for a quarantined device.
// ProbeSuccesses consecutive OKs readmit it (Probation → Healthy); a
// failure resets the streak.
func (s *Scheduler) Probe(di int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := &s.devs[di]
	if d.health != Dead && d.health != Probation {
		return
	}
	now := s.clock.Now()
	if !ok {
		if d.health != Dead {
			s.flight.Health(di, "dead", "readmission probe failed")
		}
		d.probeOKs = 0
		d.health = Dead
		s.log.printf(now, "probe dev=%d ok=false", di)
		return
	}
	d.probeOKs++
	if d.health != Probation {
		s.flight.Health(di, "probation", "readmission probe succeeded")
	}
	d.health = Probation
	s.log.printf(now, "probe dev=%d ok=true streak=%d", di, d.probeOKs)
	if d.probeOKs >= s.health.ProbeSuccesses {
		d.health = Healthy
		d.probeOKs = 0
		d.reset = make(chan struct{})
		d.penaltyUntil = now.Add(s.health.ReadmitPenalty)
		s.cReadmit.Add(1)
		s.flight.Health(di, "healthy", "probe streak readmitted")
		s.log.printf(now, "readmit dev=%d", di)
		s.admitOrphansLocked(now)
		s.cond.Broadcast()
	}
}

// ReportDeviceFailure is the runner-side crash report: the device died
// executing its current batch. The scheduler quarantines it and recovers
// its work. Safe to call for an already-dead device (no-op).
func (s *Scheduler) ReportDeviceFailure(di int, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	d := &s.devs[di]
	if d.health == Dead || d.health == Probation {
		return
	}
	s.declareDeadLocked(di, s.clock.Now(), cause)
}

// declareDeadLocked quarantines device di and reconciles every byte it
// holds back through the ledger, exactly once per reservation: in-flight
// tasks are marked reclaimed (a late completion from a resumed runner is
// dropped, not double-released) and requeued as fresh attempts; queued
// tasks move to the orphan list and re-place as capacity admits them.
func (s *Scheduler) declareDeadLocked(di int, now time.Time, cause error) {
	d := &s.devs[di]
	d.health = Dead
	d.probeOKs = 0
	d.nextProbe = now.Add(s.health.ProbeEvery)
	s.cDead.Add(1)
	detail := ""
	if cause != nil {
		detail = cause.Error()
	}
	s.flight.Health(di, "dead", detail)
	s.log.printf(now, "dead dev=%d cause=%v inflight=%d queued=%d", di, cause, len(d.running), len(d.queue))
	if d.reset != nil {
		close(d.reset) // free a runner wedged on the hung batch
		d.reset = nil
	}
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
		d.requeued++
		s.requeueLocked(t, now, cause)
	}
	d.running = d.running[:0]
	for _, t := range d.queue {
		d.dev.Release(t.Footprint)
		s.releasedBytes += t.Footprint
		t.dev = -1
		d.requeued++
		s.cRequeued.Add(1)
		s.orphans = append(s.orphans, t)
		t.Job.Event(jobtrace.KindRequeue, di, "queued", int64(t.attempt))
		s.log.printf(now, "requeue id=%d from=%d attempt=%d", t.ID, di, t.attempt)
	}
	d.queue = nil
	s.admitOrphansLocked(now)
	s.cond.Broadcast()
}

// requeueLocked schedules a lost in-flight task for re-execution as a
// fresh attempt (a clone: the original object may still be written by a
// wedged runner). Attempts beyond MaxAttempts deliver a typed failure.
func (s *Scheduler) requeueLocked(t *Task, now time.Time, cause error) {
	o := t.root()
	if o.delivered {
		return // another attempt already landed this slot
	}
	attempt := t.attempt + 1
	if attempt >= s.health.MaxAttempts {
		s.cFailed.Add(1)
		t.Job.Event(jobtrace.KindFail, -1, "retries-exhausted", int64(attempt))
		s.deliverLocked(t, nil, fmt.Errorf("%w: job %d after %d attempts: %v",
			ErrRetriesExhausted, o.ID, attempt, cause), -1)
		s.log.printf(now, "fail id=%d attempts=%d", o.ID, attempt)
		return
	}
	clone := s.cloneLocked(t, attempt)
	s.orphans = append(s.orphans, clone)
	s.cRequeued.Add(1)
	t.Job.Event(jobtrace.KindRequeue, t.dev, "running", int64(attempt))
	s.log.printf(now, "requeue id=%d as=%d attempt=%d", o.ID, clone.ID, attempt)
}

// cloneLocked builds a re-execution attempt of t: same job payload and
// result slot, fresh identity and ledger life, delivery deduped through
// the root task.
func (s *Scheduler) cloneLocked(t *Task, attempt int) *Task {
	s.nextID++
	return &Task{
		ID: s.nextID, Tenant: t.Tenant, K: t.K, Footprint: t.Footprint,
		HomeBox: t.HomeBox, Box: t.Box, Input: t.Input, Slot: t.Slot, Job: t.Job,
		attempt: attempt, origin: t.root(), dev: -1,
	}
}

// hedgeLocked launches hedged re-executions of device di's in-flight
// batch on other healthy devices: canonical slot-ordered accumulation
// makes first-result-wins byte-identical, so the hedge either beats the
// straggler or its result is dropped at delivery. The hedge holds its own
// reservation for its own lifetime; the straggler keeps its reservation
// until its runner resolves, so the ledger audit stays exact.
func (s *Scheduler) hedgeLocked(di int, now time.Time) {
	for _, t := range s.devs[di].running {
		o := t.root()
		if t.done || o.delivered || (o.hedge != nil && !o.hedge.done) {
			continue
		}
		if t.attempt+1 >= s.health.MaxAttempts {
			continue // out of attempts: let death recovery decide
		}
		dj, _, _ := s.bestExplainLocked(t.K, t.Footprint, t.HomeBox, true, 1<<uint(di), 1, nil)
		if dj < 0 {
			continue // nowhere to hedge right now
		}
		if err := s.devs[dj].dev.Reserve(t.Footprint); err != nil {
			continue
		}
		clone := s.cloneLocked(t, t.attempt+1)
		s.reservedBytes += t.Footprint
		clone.dev = dj
		s.devs[dj].queue = append(s.devs[dj].queue, clone)
		o.hedge = clone
		s.cHedged.Add(1)
		t.Job.Event(jobtrace.KindHedge, dj, "", int64(di))
		s.log.printf(now, "hedge id=%d as=%d from=%d to=%d", o.ID, clone.ID, di, dj)
	}
}

// admitOrphansLocked re-places orphaned tasks (reclaimed from dead
// devices) on live devices as ledger capacity admits them, delivering a
// typed failure to any orphan no live device can ever fit.
func (s *Scheduler) admitOrphansLocked(now time.Time) {
	kept := s.orphans[:0]
	for _, t := range s.orphans {
		o := t.root()
		if t.done || o.delivered {
			continue // resolved elsewhere (hedge landed, cancel, close)
		}
		ex := s.explainFor(t.Job)
		di, cost, fits := s.bestExplainLocked(t.K, t.Footprint, t.HomeBox, true, 0, taskWeight(t), ex)
		if di < 0 {
			if fits {
				kept = append(kept, t) // capacity exists; wait for it to free
				continue
			}
			var err error
			if s.liveLocked() == 0 {
				err = s.fleetDeadLocked()
				t.Job.Event(jobtrace.KindFail, -1, "fleet-dead", 0)
			} else {
				err = fmt.Errorf("%w: footprint %d fits no live device", ErrNoFit, t.Footprint)
				t.Job.Event(jobtrace.KindFail, -1, "no-fit", 0)
			}
			t.done = true
			s.cFailed.Add(1)
			s.deliverLocked(t, nil, err, -1)
			s.log.printf(now, "orphan-fail id=%d: %v", o.ID, err)
			continue
		}
		if err := s.devs[di].dev.Reserve(t.Footprint); err != nil {
			kept = append(kept, t)
			continue
		}
		s.reservedBytes += t.Footprint
		t.dev = di
		s.devs[di].queue = append(s.devs[di].queue, t)
		s.devs[di].gQueue.Max(int64(len(s.devs[di].queue)))
		t.Job.Place(di, cost, ex)
		s.log.printf(now, "replace id=%d dev=%d attempt=%d", t.ID, di, t.attempt)
	}
	for i := len(kept); i < len(s.orphans); i++ {
		s.orphans[i] = nil
	}
	s.orphans = kept
}

// deliverLocked hands a finished attempt's result (or error) to the
// owning solve, exactly once per root task: the first attempt to land
// wins, later ones are dropped. Results go to the root's sink slot and
// the completion latch fires under the scheduler mutex, so the solve
// goroutine's post-wait reads are ordered after the winning write. A
// caller records the winning attempt's job event before it calls this:
// once the latch fires, the solve may record its accumulation.
func (s *Scheduler) deliverLocked(t *Task, res *sample.Compressed, err error, di int) {
	o := t.root()
	if o.delivered {
		return
	}
	o.delivered = true
	if o.sink != nil {
		o.sink.res[o.Slot] = res
		o.sink.errs[o.Slot] = err
		o.sink.devs[o.Slot] = di
	}
	if o.wg != nil {
		o.wg.Done()
	}
}

// cancelCloneLocked removes a still-queued or orphaned hedge clone,
// releasing its reservation; a clone already running is left to finish
// (its result is dropped at delivery).
func (s *Scheduler) cancelCloneLocked(h *Task) {
	if h == nil || h.done {
		return
	}
	if h.dev >= 0 {
		d := &s.devs[h.dev]
		for j, t := range d.queue {
			if t != h {
				continue
			}
			copy(d.queue[j:], d.queue[j+1:])
			d.queue[len(d.queue)-1] = nil
			d.queue = d.queue[:len(d.queue)-1]
			h.done = true
			d.dev.Release(h.Footprint)
			s.releasedBytes += h.Footprint
			return
		}
		return // dispatched: the runner owns it now
	}
	for j, t := range s.orphans {
		if t != h {
			continue
		}
		copy(s.orphans[j:], s.orphans[j+1:])
		s.orphans[len(s.orphans)-1] = nil
		s.orphans = s.orphans[:len(s.orphans)-1]
		h.done = true
		return
	}
}
