// Package supervise is the supervision layer of the self-healing
// distributed solve. It watches worker liveness through heartbeats,
// declares workers dead when beats stop arriving, tracks per-iteration
// compute durations to flag stragglers by quantile, and runs the
// speculation board through which idle workers re-execute a straggler's
// sub-domains — first result wins, duplicates are discarded by sequence
// number.
//
// The package is deliberately mechanism-only: it never touches solver
// state. The solver (massif) calls Beat/BeginCompute/EndCompute at its
// iteration points, waits in AwaitHelp for a straggler to back up, and
// moves payloads through Deposit/Claim. Death handling is a callback so
// the cluster layer keeps ownership of its own dead-set protocol.
// Everything is observable through internal/obs counters:
//
//	supervise.heartbeat_deaths      workers declared dead by the monitor
//	supervise.respawns              replacement workers brought back
//	supervise.respawn_latency_ns    total detection→first-beat latency
//	supervise.stragglers_detected   (rank, iter) pairs flagged slow
//	supervise.speculative_wins      straggler iterations served by a backup
//	supervise.duplicates_discarded  late results dropped at the board
package supervise

import (
	"sort"
	"sync"
	"time"

	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/telemetry"
)

// Options configures a Supervisor. Zero values select the documented
// defaults; a zero HeartbeatTimeout disables the monitor goroutine
// entirely (straggler detection and the board still work, driven by the
// solver's own calls).
type Options struct {
	// HeartbeatTimeout is how long a worker may go without a Beat before
	// the monitor declares it dead. It must comfortably exceed the
	// transport's worst-case recv retry time or healthy-but-slow workers
	// get shot. 0 disables monitoring.
	HeartbeatTimeout time.Duration
	// PollInterval is the monitor's check period. Default: timeout/4.
	PollInterval time.Duration
	// StragglerFactor flags an in-flight compute as straggling when it
	// exceeds factor × median of completed durations. Default 4.
	StragglerFactor float64
	// StragglerFloor is the minimum absolute threshold, so fast iterations
	// with microsecond medians don't flag scheduling noise. Default 50ms.
	StragglerFloor time.Duration
	// Trace records the supervise.* counters and the per-(rank, iter)
	// compute-duration histogram "supervise.compute_seconds" — the same
	// distribution the straggler quantile cutoff is computed from. Nil
	// selects a private trace, so Snapshot still counts.
	Trace *obs.Trace
	// Flight, when non-nil, records every Beat and every heartbeat-monitor
	// death into the per-rank flight recorder, so a postmortem can name a
	// dead rank's last heartbeat.
	Flight *telemetry.Recorder
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = o.HeartbeatTimeout / 4
		if o.PollInterval <= 0 {
			o.PollInterval = time.Millisecond
		}
	}
	if o.StragglerFactor <= 0 {
		o.StragglerFactor = 4
	}
	if o.StragglerFloor <= 0 {
		o.StragglerFloor = 50 * time.Millisecond
	}
	if o.Trace == nil {
		o.Trace = obs.New()
	}
	return o
}

// histCap bounds the compute-duration history used for the straggler
// quantile; old samples age out so the threshold tracks current load.
const histCap = 256

// minHistory is how many completed durations must exist before straggler
// detection arms — too few samples make the median meaningless.
const minHistory = 3

type key struct{ Rank, Iter int }

// Supervisor monitors one generation's worth of P workers. It is safe for
// concurrent use by all worker goroutines plus its own monitor.
type Supervisor struct {
	opt Options
	p   int

	mu        sync.Mutex
	lastBeat  []time.Time
	deadByHB  []bool
	inflight  []time.Time // zero time = not computing
	inflIter  []int
	ended     []int // last iteration whose compute phase completed, -1 = none
	history   []time.Duration
	flagged   map[key]bool // straggler (rank, iter) pairs already flagged
	helpQ     []key        // flagged pairs not yet handed to a helper
	armed     map[int]time.Time
	board     map[key]any
	claimed   map[key]bool  // board entries already consumed by their owner
	progress  chan struct{} // closed and replaced when a compute phase begins or ends, or a flag is raised
	onDead    func(rank int)
	stopCh    chan struct{}
	monitorWG sync.WaitGroup

	hbDeaths   *obs.Counter
	respawns   *obs.Counter
	respawnLat *obs.Counter
	stragglers *obs.Counter
	specWins   *obs.Counter
	dups       *obs.Counter
	computeH   *obs.Histogram // per-(rank, iter) compute-phase durations

	// base holds the trace counters' values at construction: the same
	// trace may serve many supervisors in sequence (one per solve), and
	// Snapshot reports only this supervisor's contribution.
	base Stats
}

// New creates a Supervisor for p workers. The monitor goroutine (if
// enabled) is not started until Start.
func New(p int, opt Options) *Supervisor {
	opt = opt.withDefaults()
	tr := opt.Trace
	ended := make([]int, p)
	for i := range ended {
		ended[i] = -1
	}
	s := &Supervisor{
		opt:      opt,
		p:        p,
		lastBeat: make([]time.Time, p),
		deadByHB: make([]bool, p),
		inflight: make([]time.Time, p),
		inflIter: make([]int, p),
		ended:    ended,
		flagged:  map[key]bool{},
		armed:    map[int]time.Time{},
		board:    map[key]any{},
		claimed:  map[key]bool{},
		progress: make(chan struct{}),

		hbDeaths:   tr.Counter("supervise.heartbeat_deaths"),
		respawns:   tr.Counter("supervise.respawns"),
		respawnLat: tr.Counter("supervise.respawn_latency_ns"),
		stragglers: tr.Counter("supervise.stragglers_detected"),
		specWins:   tr.Counter("supervise.speculative_wins"),
		dups:       tr.Counter("supervise.duplicates_discarded"),
		computeH:   tr.Histogram("supervise.compute_seconds"),
	}
	s.base = s.rawStats()
	return s
}

// Start launches the monitor goroutine. onDead is invoked (outside the
// supervisor lock, at most once per rank per generation) when a worker
// misses its heartbeat deadline; pass the cluster's DeclareDead. A zero
// HeartbeatTimeout makes Start a no-op.
func (s *Supervisor) Start(onDead func(rank int)) {
	s.mu.Lock()
	s.onDead = onDead
	s.mu.Unlock()
	if s.opt.HeartbeatTimeout <= 0 {
		return
	}
	s.stopCh = make(chan struct{})
	s.monitorWG.Add(1)
	go func() {
		defer s.monitorWG.Done()
		tick := time.NewTicker(s.opt.PollInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case now := <-tick.C:
				s.sweep(now)
			}
		}
	}()
}

// Stop halts the monitor goroutine. Safe to call when never started.
func (s *Supervisor) Stop() {
	if s.stopCh != nil {
		close(s.stopCh)
		s.monitorWG.Wait()
		s.stopCh = nil
	}
}

// sweep is one monitor pass: heartbeat deadlines, then straggler flags.
func (s *Supervisor) sweep(now time.Time) {
	var deaths []int
	s.mu.Lock()
	for r := 0; r < s.p; r++ {
		if s.deadByHB[r] || s.lastBeat[r].IsZero() {
			continue
		}
		if now.Sub(s.lastBeat[r]) > s.opt.HeartbeatTimeout {
			s.deadByHB[r] = true
			deaths = append(deaths, r)
		}
	}
	s.flagStragglersLocked(now)
	onDead := s.onDead
	s.mu.Unlock()
	for _, r := range deaths {
		s.hbDeaths.Add(1)
		s.opt.Flight.Crash(r, "heartbeat-monitor", nil)
		if onDead != nil {
			onDead(r)
		}
	}
}

// Beat records a liveness heartbeat from rank. A beat from a rank armed
// for respawn completes the respawn measurement: the rank is back.
func (s *Supervisor) Beat(rank int, iter int) {
	now := time.Now()
	s.opt.Flight.Heartbeat(rank, iter)
	s.mu.Lock()
	s.lastBeat[rank] = now
	s.deadByHB[rank] = false
	if t0, ok := s.armed[rank]; ok {
		delete(s.armed, rank)
		s.mu.Unlock()
		s.respawns.Add(1)
		s.respawnLat.Add(now.Sub(t0).Nanoseconds())
		return
	}
	s.mu.Unlock()
}

// ArmRespawn marks rank as detected-dead now; the latency until its next
// Beat is recorded as the respawn time.
func (s *Supervisor) ArmRespawn(rank int) {
	s.mu.Lock()
	if _, ok := s.armed[rank]; !ok {
		s.armed[rank] = time.Now()
	}
	s.mu.Unlock()
}

// BeginCompute marks rank as entering its per-iteration compute phase.
func (s *Supervisor) BeginCompute(rank, iter int) {
	s.mu.Lock()
	s.inflight[rank] = time.Now()
	s.inflIter[rank] = iter
	s.notifyLocked()
	s.mu.Unlock()
}

// EndCompute closes the phase opened by BeginCompute, feeding the
// duration into the straggler quantile history.
func (s *Supervisor) EndCompute(rank, iter int) {
	now := time.Now()
	s.mu.Lock()
	if !s.inflight[rank].IsZero() && s.inflIter[rank] == iter {
		d := now.Sub(s.inflight[rank])
		s.inflight[rank] = time.Time{}
		if len(s.history) == histCap {
			s.history = s.history[1:]
		}
		s.history = append(s.history, d)
		s.computeH.Observe(d)
	}
	if iter > s.ended[rank] {
		s.ended[rank] = iter
	}
	s.notifyLocked()
	s.mu.Unlock()
}

// notifyLocked wakes every AwaitHelp caller to re-read the state.
func (s *Supervisor) notifyLocked() {
	close(s.progress)
	s.progress = make(chan struct{})
}

// stragglerThresholdLocked returns the current cutoff, or 0 when the
// history is too thin to judge.
func (s *Supervisor) stragglerThresholdLocked() time.Duration {
	if len(s.history) < minHistory {
		return 0
	}
	sorted := make([]time.Duration, len(s.history))
	copy(sorted, s.history)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]
	cut := time.Duration(float64(median) * s.opt.StragglerFactor)
	if cut < s.opt.StragglerFloor {
		cut = s.opt.StragglerFloor
	}
	return cut
}

// flagStragglersLocked queues every in-flight compute past the cutoff for
// help, once per (rank, iter), and returns the cutoff (0: disarmed).
func (s *Supervisor) flagStragglersLocked(now time.Time) time.Duration {
	cut := s.stragglerThresholdLocked()
	if cut == 0 {
		return 0
	}
	for r := 0; r < s.p; r++ {
		if s.inflight[r].IsZero() || now.Sub(s.inflight[r]) <= cut {
			continue
		}
		k := key{r, s.inflIter[r]}
		if s.flagged[k] {
			continue
		}
		s.flagged[k] = true
		s.helpQ = append(s.helpQ, k)
		s.stragglers.Add(1)
		s.notifyLocked()
	}
	return cut
}

// nextFlagLocked returns how long until the first unflagged in-flight
// compute crosses cut, and false when none can.
func (s *Supervisor) nextFlagLocked(now time.Time, cut time.Duration) (time.Duration, bool) {
	next, armed := time.Duration(0), false
	if cut == 0 {
		return next, armed
	}
	for r := 0; r < s.p; r++ {
		if s.inflight[r].IsZero() || s.flagged[key{r, s.inflIter[r]}] {
			continue
		}
		if d := s.inflight[r].Add(cut).Sub(now); !armed || d < next {
			next, armed = d, true
		}
	}
	return next, armed
}

// peersPendingLocked reports whether any rank other than self has not yet
// completed its compute phase for iteration iter — whether it is still
// mid-compute or has not even reached BeginCompute (e.g. still writing its
// checkpoint).
func (s *Supervisor) peersPendingLocked(self, iter int) bool {
	for r := 0; r < s.p; r++ {
		if r != self && s.ended[r] < iter {
			return true
		}
	}
	return false
}

// AwaitHelp hands a worker idle in iteration iter a flagged straggler to
// back up: while a rank other than self has not ended that iteration's
// compute phase, it sweeps for stragglers and returns the first flagged
// (rank, iter) pair, each handed out at most once; it returns ok = false
// once no peer is pending or done closes. It sleeps until a compute phase
// begins or ends, a flag is raised, or an in-flight compute crosses the
// cutoff, so waiting costs no polling.
func (s *Supervisor) AwaitHelp(self, iter int, done <-chan struct{}) (rank, flaggedIter int, ok bool) {
	for {
		s.mu.Lock()
		now := time.Now()
		cut := s.flagStragglersLocked(now)
		if len(s.helpQ) > 0 {
			k := s.helpQ[0]
			s.helpQ = s.helpQ[1:]
			s.mu.Unlock()
			return k.Rank, k.Iter, true
		}
		pending, progress := s.peersPendingLocked(self, iter), s.progress
		next, armed := s.nextFlagLocked(now, cut)
		s.mu.Unlock()
		if !pending || waitChange(progress, done, next, armed) {
			return 0, 0, false
		}
	}
}

// waitChange blocks until progress closes, d elapses (when armed) or done
// closes, and reports whether done closed.
func waitChange(progress, done <-chan struct{}, d time.Duration, armed bool) bool {
	var expire <-chan time.Time
	if armed {
		t := time.NewTimer(d)
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-progress:
	case <-expire:
	case <-done:
		return true
	}
	return false
}

// Deposit posts a speculative result for (rank, iter) — the sequence
// number of the re-executed work. The first deposit wins; later ones are
// discarded and counted as duplicates.
func (s *Supervisor) Deposit(rank, iter int, payload any) bool {
	k := key{rank, iter}
	s.mu.Lock()
	if _, exists := s.board[k]; exists {
		s.mu.Unlock()
		s.dups.Add(1)
		return false
	}
	s.board[k] = payload
	s.mu.Unlock()
	return true
}

// Claim is the straggler's own lookup: if a backup already deposited the
// iteration's result, the straggler adopts it (a speculative win) instead
// of finishing its slow compute.
func (s *Supervisor) Claim(rank, iter int) (any, bool) {
	k := key{rank, iter}
	s.mu.Lock()
	v, ok := s.board[k]
	if !ok || s.claimed[k] {
		s.mu.Unlock()
		return nil, false
	}
	s.claimed[k] = true
	s.mu.Unlock()
	s.specWins.Add(1)
	return v, true
}

// ResetGeneration clears per-generation state (board, in-flight computes,
// straggler flags, heartbeat deaths) ahead of a respawn round. Duration
// history, armed respawn clocks, and all counters survive: history keeps
// the threshold warm and armed clocks must span the reset to measure
// detection→first-beat latency.
func (s *Supervisor) ResetGeneration() {
	s.mu.Lock()
	for r := 0; r < s.p; r++ {
		s.inflight[r] = time.Time{}
		s.deadByHB[r] = false
		s.lastBeat[r] = time.Time{}
		s.ended[r] = -1
	}
	s.flagged = map[key]bool{}
	s.helpQ = nil
	s.board = map[key]any{}
	s.claimed = map[key]bool{}
	s.mu.Unlock()
}

// Stats is a point-in-time snapshot of the supervision counters.
type Stats struct {
	HeartbeatDeaths     int64
	Respawns            int64
	RespawnLatency      time.Duration // summed detection→first-beat time
	StragglersDetected  int64
	SpeculativeWins     int64
	DuplicatesDiscarded int64
}

func (s *Supervisor) rawStats() Stats {
	return Stats{
		HeartbeatDeaths:     s.hbDeaths.Value(),
		Respawns:            s.respawns.Value(),
		RespawnLatency:      time.Duration(s.respawnLat.Value()),
		StragglersDetected:  s.stragglers.Value(),
		SpeculativeWins:     s.specWins.Value(),
		DuplicatesDiscarded: s.dups.Value(),
	}
}

// Snapshot returns this supervisor's contribution to the counters. The
// trace counters themselves are cumulative across every supervisor that
// shares the trace; the construction-time baseline is subtracted so
// sequential solves on one trace each report their own stats.
func (s *Supervisor) Snapshot() Stats {
	raw := s.rawStats()
	return Stats{
		HeartbeatDeaths:     raw.HeartbeatDeaths - s.base.HeartbeatDeaths,
		Respawns:            raw.Respawns - s.base.Respawns,
		RespawnLatency:      raw.RespawnLatency - s.base.RespawnLatency,
		StragglersDetected:  raw.StragglersDetected - s.base.StragglersDetected,
		SpeculativeWins:     raw.SpeculativeWins - s.base.SpeculativeWins,
		DuplicatesDiscarded: raw.DuplicatesDiscarded - s.base.DuplicatesDiscarded,
	}
}
