package supervise

import (
	"time"

	"lowcomm3d/internal/cluster"
)

// ChaosSchedule injects deterministic compute-time straggle into worker
// iterations, complementing cluster.FaultPlan's transport faults. Like the
// fault injector, every decision is a pure function of (Seed, worker,
// iter), so a chaos run replays identically regardless of goroutine
// scheduling.
type ChaosSchedule struct {
	Seed uint64
	// StraggleProb is the per-(worker, iteration) probability of an
	// injected compute delay.
	StraggleProb float64
	// StraggleDelay is the injected delay when straggle fires.
	StraggleDelay time.Duration
}

// Delay returns the injected compute delay for (worker, iter): zero for
// most pairs, StraggleDelay when the seeded roll fires.
func (c *ChaosSchedule) Delay(worker, iter int) time.Duration {
	if c == nil || c.StraggleProb <= 0 || c.StraggleDelay <= 0 {
		return 0
	}
	x := cluster.SplitMix64(c.Seed ^ uint64(worker)<<32 ^ uint64(iter))
	if float64(x>>11)/(1<<53) < c.StraggleProb {
		return c.StraggleDelay
	}
	return 0
}
