package cluster

import (
	"math"
	"sync/atomic"
	"time"
)

// message is one framed unit on the simulated fabric: a sequence number
// for in-order delivery and deduplication, the payload, an end-to-end
// checksum so corrupted deliveries are detected (and retried) rather than
// silently accumulated, and the cluster epoch it was sent under — a
// delayed delivery from before a ResetEpoch must not be mistaken for a
// fresh message by the respawned generation.
type message struct {
	seq     uint64
	payload []float64
	sum     uint64
	epoch   uint32
}

// checksum is FNV-1a over the payload's float bits, one 64-bit word per
// value rather than one byte. Each step (xor a word, multiply by an odd
// prime) is a bijection of the running hash, so a change to any one value
// — every single-bit flip the injector performs — changes the sum.
func checksum(data []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range data {
		h ^= math.Float64bits(v)
		h *= prime
	}
	return h
}

// Transport decides the fate of every transmission attempt between two
// workers. The cluster owns the mailboxes; a Transport may deliver the
// message (possibly mutated, delayed, or duplicated) by calling deliver,
// or drop it entirely. attempt is 0 for the original transmission and
// grows with each retransmission, so injectors can heal retries.
//
// Crash reports whether worker id should fail ahead of its op-th
// top-level communication operation (1-based); a crashed worker returns
// CrashError from that operation and is marked dead cluster-wide.
type Transport interface {
	Transmit(from, to int, m message, attempt int, deliver func(message))
	Crash(worker, op int) bool
}

// reliableTransport is the default fabric: every message is delivered
// exactly once, immediately, intact.
type reliableTransport struct{}

func (reliableTransport) Transmit(_, _ int, m message, _ int, deliver func(message)) {
	deliver(m)
}

func (reliableTransport) Crash(int, int) bool { return false }

// FaultPlan configures the deterministic fault injector. All probabilities
// are per transmission attempt; decisions depend only on (Seed, from, to,
// seq, attempt), so a given plan replays the identical fault schedule on
// every run regardless of goroutine interleaving.
type FaultPlan struct {
	Seed        int64
	DropProb    float64       // message vanishes
	DelayProb   float64       // message delivered after Delay
	Delay       time.Duration // injected latency (default 1ms when DelayProb > 0)
	DupProb     float64       // message delivered twice
	CorruptProb float64       // one payload value is bit-flipped (checksum mismatch)
	CrashWorker int           // worker that dies, when CrashAtOp > 0
	CrashAtOp   int           // 1-based top-level op index at which it dies; 0 disables

	// Crashes are one-shot crash points: each fires at most once, so a
	// respawned replacement worker survives the op index that killed its
	// predecessor. The legacy CrashWorker/CrashAtOp pair stays sticky
	// (op >= CrashAtOp keeps firing) for a worker that must stay down: the
	// tests that a healing run (LowCommConvolve, the distributed MASSIF
	// solve) losing the same worker every generation gives up.
	Crashes []CrashPoint
}

// CrashPoint schedules one worker death at a 1-based top-level op index.
type CrashPoint struct {
	Worker int
	Op     int
}

// FaultInjector implements Transport with the seeded fault schedule of a
// FaultPlan and counts what it injected.
type FaultInjector struct {
	plan     FaultPlan
	drops    atomic.Int64
	delays   atomic.Int64
	dups     atomic.Int64
	corrupts atomic.Int64
	fired    []atomic.Bool // one flag per plan.Crashes entry
}

// NewFaultInjector builds the injector for plan.
func NewFaultInjector(plan FaultPlan) *FaultInjector {
	if plan.DelayProb > 0 && plan.Delay <= 0 {
		plan.Delay = time.Millisecond
	}
	return &FaultInjector{plan: plan, fired: make([]atomic.Bool, len(plan.Crashes))}
}

// SplitMix64 is the splitmix64 finalizer, a well-mixed 64-bit hash: the one
// hash behind every seeded fault schedule (this package's FaultPlan and
// ChaosConn, supervise.ChaosSchedule, fleet.FaultSchedule), so each
// decision is a pure function of its seed and coordinates.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a uniform [0,1) value determined entirely by the plan seed
// and the message coordinates, independent of scheduling order.
func (f *FaultInjector) roll(salt uint64, from, to int, seq uint64, attempt int) float64 {
	x := uint64(f.plan.Seed)
	x = SplitMix64(x ^ salt)
	x = SplitMix64(x ^ uint64(from)<<32 ^ uint64(to))
	x = SplitMix64(x ^ seq<<8 ^ uint64(attempt))
	return float64(x>>11) / (1 << 53)
}

// Transmit implements Transport: at most one fault class fires per
// attempt, chosen in fixed order (drop, corrupt, dup, delay).
func (f *FaultInjector) Transmit(from, to int, m message, attempt int, deliver func(message)) {
	switch {
	case f.roll(1, from, to, m.seq, attempt) < f.plan.DropProb:
		f.drops.Add(1)
		return
	case len(m.payload) > 0 && f.roll(2, from, to, m.seq, attempt) < f.plan.CorruptProb:
		f.corrupts.Add(1)
		bad := make([]float64, len(m.payload))
		copy(bad, m.payload)
		i := int(SplitMix64(uint64(f.plan.Seed)^m.seq^uint64(from))) % len(bad)
		if i < 0 {
			i = -i
		}
		bad[i] = math.Float64frombits(math.Float64bits(bad[i]) ^ 0xdeadbeef)
		deliver(message{seq: m.seq, payload: bad, sum: m.sum})
		return
	case f.roll(3, from, to, m.seq, attempt) < f.plan.DupProb:
		f.dups.Add(1)
		deliver(m)
		deliver(m)
		return
	case f.roll(4, from, to, m.seq, attempt) < f.plan.DelayProb:
		f.delays.Add(1)
		time.AfterFunc(f.plan.Delay, func() { deliver(m) })
		return
	default:
		deliver(m)
	}
}

// Crash implements Transport. Legacy CrashWorker/CrashAtOp is sticky; the
// Crashes list fires each point exactly once (the op counter is monotonic
// across respawn generations, so a point consumed by one generation never
// re-kills the replacement).
func (f *FaultInjector) Crash(worker, op int) bool {
	if f.plan.CrashAtOp > 0 && worker == f.plan.CrashWorker && op >= f.plan.CrashAtOp {
		return true
	}
	for i, cp := range f.plan.Crashes {
		if cp.Worker == worker && op >= cp.Op && f.fired[i].CompareAndSwap(false, true) {
			return true
		}
	}
	return false
}
