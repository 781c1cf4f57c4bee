// Package fleet schedules sub-domain convolution jobs across a multi-GPU
// fleet — the DGX-2 regime gpu.DGX2BatchStudy models and the "optimizing
// cluster usage with fewer resources" batching claim of the paper's §5.1,
// generalized from one gpu.Device ledger to a []*gpu.Device fleet.
//
// Placement chooses, per job, the cheapest admissible device: admissible
// means the job's modeled footprint (gpu.JobFootprint — the Table 1/4
// 8·N²·k-shaped bound) fits the device's free ledger bytes, and cheapest
// means the smallest modeled seconds under an α–β transfer estimate
// (NVLink within a box, InfiniBand across boxes — Eq. 2 priced per link
// class) plus the calibrated compute model plus the device's current
// backlog. Each device owns a bounded FIFO queue; an idle device steals
// work from its most-loaded sibling (migrating the ledger reservation
// with the job). Compatible jobs — same sub-domain edge k — are
// dispatched together as one batch: one wake-up of the device's runner,
// one fault decision and one ledger release under the scheduler lock.
// Each job still places and runs its own conv.Local, so a batch shares
// no transform work between jobs. Jobs
// whose footprint exceeds every device's capacity spill to the
// internal/cluster low-communication distributed path, the way the
// paper's Tables 3/4 pick the decomposition k per problem.
//
// The scheduler is deliberately a deterministic state machine behind one
// mutex: given the same sequence of calls (and a simulated clock), it
// makes the same decisions and, with a Log attached, emits a byte-stable
// decision trace. The tests' RunSim drives it with seeded synthetic
// workloads so every property of the scheduler — no ledger overcommit,
// exactly-once release, steal determinism, starvation freedom — is
// checked by reproducible property tests rather than examples.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/telemetry"
)

// ErrOverloaded is the sentinel matched by errors.Is for every admission
// rejection where the job would fit some device, just not now.
var ErrOverloaded = errors.New("fleet: overloaded")

// ErrNoFit is returned when a job's modeled footprint exceeds every
// device's total capacity — no amount of waiting admits it, the job must
// shrink (smaller k) or spill to the distributed path.
var ErrNoFit = errors.New("fleet: job fits no device")

// ErrClosed is returned once the scheduler has been closed.
var ErrClosed = errors.New("fleet: scheduler closed")

// OverloadError is the typed rejection carrying which device came
// closest and how long the caller should wait for it.
type OverloadError struct {
	Device     int           // index of the cheapest device that could eventually admit
	Name       string        // its gpu.Device name
	Reason     string        // "queue full" or "device memory"
	QueueDepth int           // that device's queued jobs at rejection time
	RetryAfter time.Duration // per-device hint: its smoothed job latency × its backlog
	Cause      error         // non-nil for memory rejections (gpu.ErrOutOfMemory chain)
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("fleet: overloaded (dev %d %s: %s, depth %d, retry after %v)",
		e.Device, e.Name, e.Reason, e.QueueDepth, e.RetryAfter)
}

// Unwrap exposes the ErrOverloaded sentinel (and the device cause) to
// errors.Is / errors.As.
func (e *OverloadError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrOverloaded, e.Cause}
	}
	return []error{ErrOverloaded}
}

// Clock abstracts time so scheduling decisions are reproducible: tests
// drive a SimClock, production uses WallClock.
type Clock interface {
	Now() time.Time
}

// WallClock is the real time.Now.
type WallClock struct{}

// Now returns the wall time.
func (WallClock) Now() time.Time { return time.Now() }

// Options configures a Scheduler.
type Options struct {
	// Devices is the fleet; at least one. The scheduler reserves job
	// footprints on these ledgers and never exceeds any capacity.
	Devices []*gpu.Device
	// BoxOf assigns each device to a box (node): devices sharing a box
	// exchange over NVLink, devices in different boxes over InfiniBand.
	// Nil places every device in box 0 (one DGX-2-style node).
	BoxOf []int

	// N is the engine grid edge and FarRate the far-field sampling rate;
	// together with a job's k they price footprints and transfers.
	N       int
	FarRate int // ≤0: 16

	// QueueDepth bounds each device's FIFO (≤0: 16). MaxBatch is the
	// largest number of same-k jobs admitted as one batched run (≤0: 4).
	// StealMin is the minimum sibling queue length worth stealing from
	// (≤0: 1 — an idle device steals from any non-empty sibling).
	QueueDepth int
	MaxBatch   int
	StealMin   int

	// Health tunes the device health monitor (suspect/dead deadlines,
	// probation probes, retry bounds). Zero value gets defaults; the
	// monitor only acts when a driver calls CheckHealth, so schedulers
	// whose drivers never do (serve's queue-less admission) keep every
	// device Healthy.
	Health HealthOptions

	// Clock defaults to WallClock. Log, when non-nil, receives the
	// byte-stable decision trace. Trace, when non-nil, receives fleet.*
	// counters and gauges.
	Clock Clock
	Log   *Log
	Trace *obs.Trace

	// Flight, when non-nil, receives device health transitions
	// (suspect/dead/probation/healthy) on the device-index ring, so a
	// flight-recorder postmortem names each device's last health event.
	Flight *telemetry.Recorder
}

// Task is one schedulable sub-domain job. The scheduling fields (ID,
// Tenant, K, Footprint, HomeBox) drive placement; Box/Input/Slot are the
// execution payload the Engine's device runners consume and simulations
// leave nil.
type Task struct {
	ID        uint64
	Tenant    string
	K         int
	Footprint int64
	HomeBox   int // box where the job's input lives (NVLink vs IB)

	// Weight is the tenant's dispatch weight: it divides the EWMA backlog
	// term of the Eq. 2 placement cost, so a heavier tenant tolerates a
	// deeper queue before spilling to a worse device (≤0: 1).
	Weight float64

	Box   grid.Box
	Input *grid.Field // full field the runner extracts Box from
	Slot  int         // result index within the owning solve

	// Job, when non-nil, is the lifecycle timeline this task reports to:
	// placement (with scored alternatives), queueing, batching, steals,
	// hedges, retries, and recovery all land on it. Clones made by fault
	// recovery inherit it, so one timeline follows the logical job across
	// attempts. All jobtrace methods are nil-safe.
	Job *jobtrace.Job

	// Result and Err are written by the runner that executes the task.
	// Exactly one goroutine — the runner owning this attempt — writes
	// them; the scheduler copies the winning attempt's values into the
	// owning solve's sink under its mutex (deliverLocked), so solves read
	// the sink, never these fields.
	Result *sample.Compressed
	Err    error

	dev  int // device currently holding the reservation (-1: orphaned)
	done bool
	wg   *sync.WaitGroup // owning solve's completion latch

	// Fault-recovery identity: a requeued or hedged re-execution is a
	// fresh Task (clone) pointing at the root attempt through origin;
	// delivery dedupes through the root so first-result-wins.
	attempt   int
	origin    *Task       // nil on the root attempt
	hedge     *Task       // root only: outstanding hedged clone, if any
	sink      *resultSink // root only: owning solve's result slots
	reclaimed bool        // resolved by recovery, not its runner
	delivered bool        // root only: a result or error already landed
}

// root returns the task whose Slot this attempt resolves: itself for a
// first attempt, the original task for a requeued/hedged clone.
func (t *Task) root() *Task {
	if t.origin != nil {
		return t.origin
	}
	return t
}

// resultSink is one solve's result table. Slots are written only under
// the scheduler mutex (deliverLocked) and read by the solve goroutine
// after its completion latch fires — the mutex orders the handoff, so
// hedged and late attempts can never race the reader.
type resultSink struct {
	res  []*sample.Compressed
	errs []error
	devs []int // winning device per slot (-1: failed/spilled)
}

func newResultSink(n int) *resultSink {
	s := &resultSink{
		res:  make([]*sample.Compressed, n),
		errs: make([]error, n),
		devs: make([]int, n),
	}
	for i := range s.devs {
		s.devs[i] = -1
	}
	return s
}

// DefaultNVLink models an NVSwitch hop inside a DGX-2-style box:
// ~120 GB/s per direction, 2 µs launch latency.
func DefaultNVLink() cluster.Params {
	return cluster.Params{Alpha: 2e-6, Beta: 1 / 120e9}
}

// DefaultIB is the cross-box fabric — the same 100 Gb/s class link as
// cluster.DefaultParams.
func DefaultIB() cluster.Params { return cluster.DefaultParams() }
