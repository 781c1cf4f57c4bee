package fleet

import (
	"time"

	"lowcomm3d/internal/cluster"
)

// FaultKind is one injected device failure mode — the device-level
// analogue of cluster.Transport's message faults and
// supervise.ChaosSchedule's compute straggle.
type FaultKind uint8

const (
	// FaultNone injects nothing.
	FaultNone FaultKind = iota
	// FaultCrash kills the device: the batch is lost, the device is
	// reported dead immediately (the runner notices its own failure).
	FaultCrash
	// FaultHang wedges the device: the batch never completes and no
	// failure is reported — only the health monitor's deadline notices.
	FaultHang
	// FaultTransient fails the batch with a retryable compute error; the
	// device itself stays healthy.
	FaultTransient
	// FaultSlow stretches the batch (sim: duration × SlowFactor; engine:
	// an injected SlowDelay sleep) — the straggler case hedged runs cover.
	FaultSlow
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultCrash:
		return "crash"
	case FaultHang:
		return "hang"
	case FaultTransient:
		return "transient"
	case FaultSlow:
		return "slow"
	default:
		return "fault(?)"
	}
}

// FaultPoint is where in a batch's lifetime a fault fires.
type FaultPoint uint8

const (
	// PointDispatch fires before any task of the batch runs.
	PointDispatch FaultPoint = iota
	// PointMidBatch fires after half the batch's tasks have run.
	PointMidBatch
	// PointCompletion fires after every task ran but before the batch's
	// results are reported — the crash-after-compute case, where the work
	// is done but lost.
	PointCompletion
)

func (p FaultPoint) String() string {
	switch p {
	case PointDispatch:
		return "dispatch"
	case PointMidBatch:
		return "mid-batch"
	case PointCompletion:
		return "completion"
	default:
		return "point(?)"
	}
}

// FaultSchedule injects seeded deterministic device faults: every
// decision is a pure function of (Seed, device, dispatch sequence,
// point), so a fault run replays identically regardless of goroutine
// scheduling — the same contract as cluster's FaultPlan and
// supervise.ChaosSchedule. Probabilities are per (device, dispatch,
// point) roll and are tried in order crash, hang, transient, slow.
type FaultSchedule struct {
	Seed uint64

	CrashProb     float64
	HangProb      float64
	TransientProb float64
	SlowProb      float64

	// SlowFactor multiplies a slowed batch's simulated duration (≤0: 4).
	SlowFactor float64
	// SlowDelay is the sleep a slowed batch injects in the real engine
	// (≤0: 20ms).
	SlowDelay time.Duration

	// ProbeFailProb is the per-probe probability that a quarantined
	// device fails its readmission probe and stays dead.
	ProbeFailProb float64
}

// roll hashes x with the splitmix64 finalizer every seeded schedule shares
// and maps it to a uniform [0,1) value.
func roll(x uint64) float64 { return float64(cluster.SplitMix64(x)>>11) / (1 << 53) }

// At returns the fault injected at point for device dev's dispatch-th
// batch (FaultNone for most rolls). Nil schedules inject nothing.
func (f *FaultSchedule) At(dev int, dispatch uint64, point FaultPoint) FaultKind {
	if f == nil {
		return FaultNone
	}
	u := roll(f.Seed ^ uint64(dev)<<48 ^ dispatch<<8 ^ uint64(point))
	switch {
	case u < f.CrashProb:
		return FaultCrash
	case u < f.CrashProb+f.HangProb:
		return FaultHang
	case u < f.CrashProb+f.HangProb+f.TransientProb:
		return FaultTransient
	case u < f.CrashProb+f.HangProb+f.TransientProb+f.SlowProb:
		return FaultSlow
	default:
		return FaultNone
	}
}

// ProbeOK reports whether device dev's probe-th readmission probe
// succeeds. Nil schedules always succeed.
func (f *FaultSchedule) ProbeOK(dev, probe int) bool {
	if f == nil || f.ProbeFailProb <= 0 {
		return true
	}
	u := roll(f.Seed ^ 0x70726f6265 ^ uint64(dev)<<32 ^ uint64(probe))
	return u >= f.ProbeFailProb
}

func (f *FaultSchedule) slowFactor() float64 {
	if f == nil || f.SlowFactor <= 0 {
		return 4
	}
	return f.SlowFactor
}

func (f *FaultSchedule) slowDelay() time.Duration {
	if f == nil || f.SlowDelay <= 0 {
		return 20 * time.Millisecond
	}
	return f.SlowDelay
}
