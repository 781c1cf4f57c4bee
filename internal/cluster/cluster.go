package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/telemetry"
)

// Stats accounts every byte that crosses worker boundaries, the measured
// counterpart of the α–β model, plus the fault-tolerance counters.
// Collective rounds are counted once per collective, not per message;
// point-to-point traffic (personalized sends, broadcast and reduction
// messages) contributes α–β time per message.
type Stats struct {
	mu           sync.Mutex
	BytesSent    int64
	Messages     int64
	AllToAllOps  int64
	SimulatedSec float64 // α–β time of the counted traffic

	Retransmits    int64 // messages re-sent after a receive deadline expired
	Timeouts       int64 // receive attempts that hit their deadline
	CorruptDropped int64 // deliveries discarded on checksum mismatch
	DupDropped     int64 // duplicate deliveries discarded by sequence number
	DeadWorkers    int64 // workers declared dead (crash or retry exhaustion)

	// Collectives is the measured twin of the α–β model: one record per
	// completed all-to-all round holding the bytes that actually crossed
	// the fabric next to the model's inputs and predicted time, so tests
	// (and paperbench -measured) can diff measurement against Eq. 1/Eq. 6
	// exactly instead of trusting the analytic path.
	Collectives []MeasuredCollective

	// Cached obs handles (nil when no trace is attached); kept out of the
	// per-message lock-free path's way by resolving names once at setup.
	bytesC   *obs.Counter
	msgsC    *obs.Counter
	retransC *obs.Counter
	timeoutC *obs.Counter
	collOpsC *obs.Counter
	collByC  *obs.Counter
	a2aH     *obs.Histogram // per-worker all-to-all wall time
	arH      *obs.Histogram // per-worker all-reduce wall time
	bcH      *obs.Histogram // per-worker broadcast wall time
}

// MeasuredCollective is one completed collective round as observed on the
// fabric, paired with the α–β model's view of the same round.
type MeasuredCollective struct {
	Op           string  // "all-to-all"
	Bytes        int64   // fabric bytes actually moved this round (all ranks)
	MaxPairBytes int     // largest single pairwise buffer (the model input)
	Participants int     // ranks accounted in the round
	ModelSec     float64 // (Participants−1) · MessageTime(MaxPairBytes)
}

// attachTrace caches the trace's counters so the recording fast paths do
// one nil check instead of a map lookup per message.
func (s *Stats) attachTrace(t *obs.Trace) {
	if t == nil {
		return
	}
	s.bytesC = t.Counter("cluster.bytes")
	s.msgsC = t.Counter("cluster.messages")
	s.retransC = t.Counter("cluster.retransmits")
	s.timeoutC = t.Counter("cluster.timeouts")
	s.collOpsC = t.Counter("cluster.collective.rounds")
	s.collByC = t.Counter("cluster.collective.bytes")
	s.a2aH = t.Histogram("cluster.alltoall_seconds")
	s.arH = t.Histogram("cluster.allreduce_seconds")
	s.bcH = t.Histogram("cluster.broadcast_seconds")
}

// CollectiveSnapshot returns a copy of the measured collective rounds.
func (s *Stats) CollectiveSnapshot() []MeasuredCollective {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MeasuredCollective, len(s.Collectives))
	copy(out, s.Collectives)
	return out
}

// recordMessage counts one point-to-point or collective-internal message.
// timed selects whether the message contributes α–β time directly;
// all-to-all internals pass false because recordCollective models the
// whole round (Eq. 2 applied per peer).
func (s *Stats) recordMessage(bytes int, p Params, timed bool) {
	s.mu.Lock()
	s.BytesSent += int64(bytes)
	s.Messages++
	if timed {
		s.SimulatedSec += p.MessageTime(bytes)
	}
	s.mu.Unlock()
	s.bytesC.Add(int64(bytes))
	s.msgsC.Add(1)
}

// recordRetransmit counts a retry: real traffic, real α–β time, but kept
// out of Messages so logical message totals stay schedule-independent.
func (s *Stats) recordRetransmit(bytes int, p Params) {
	s.mu.Lock()
	s.Retransmits++
	s.BytesSent += int64(bytes)
	s.SimulatedSec += p.MessageTime(bytes)
	s.mu.Unlock()
	s.retransC.Add(1)
	s.bytesC.Add(int64(bytes))
}

func (s *Stats) recordCollective(maxPairBytes int, sumBytes int64, workers int, p Params) {
	// Linear all-to-all cost: P−1 sequential pairwise exchanges of the
	// largest message (conservative, matches Eq. 2 applied per peer).
	modelSec := float64(workers-1) * p.MessageTime(maxPairBytes)
	s.mu.Lock()
	s.AllToAllOps++
	s.SimulatedSec += modelSec
	s.Collectives = append(s.Collectives, MeasuredCollective{
		Op:           "all-to-all",
		Bytes:        sumBytes,
		MaxPairBytes: maxPairBytes,
		Participants: workers,
		ModelSec:     modelSec,
	})
	s.mu.Unlock()
	s.collOpsC.Add(1)
	s.collByC.Add(sumBytes)
}

func (s *Stats) bumpTimeout()     { s.mu.Lock(); s.Timeouts++; s.mu.Unlock(); s.timeoutC.Add(1) }
func (s *Stats) bumpCorrupt()     { s.mu.Lock(); s.CorruptDropped++; s.mu.Unlock() }
func (s *Stats) bumpDup()         { s.mu.Lock(); s.DupDropped++; s.mu.Unlock() }
func (s *Stats) bumpDeadWorkers() { s.mu.Lock(); s.DeadWorkers++; s.mu.Unlock() }

// Snapshot returns a copy of the traffic counters safe to read after Run
// returns.
func (s *Stats) Snapshot() (bytes, messages, collectives int64, simSec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.BytesSent, s.Messages, s.AllToAllOps, s.SimulatedSec
}

// FaultStats is a snapshot of the fault-tolerance counters.
type FaultStats struct {
	Retransmits    int64
	Timeouts       int64
	CorruptDropped int64
	DupDropped     int64
	DeadWorkers    int64
}

// FaultSnapshot returns the fault counters safe to read after Run returns.
func (s *Stats) FaultSnapshot() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return FaultStats{
		Retransmits:    s.Retransmits,
		Timeouts:       s.Timeouts,
		CorruptDropped: s.CorruptDropped,
		DupDropped:     s.DupDropped,
		DeadWorkers:    s.DeadWorkers,
	}
}

// FaultError reports an unrecoverable communication fault: worker Worker
// exhausted its retry budget (Attempts timed-out receive attempts with
// exponential backoff) waiting for peer Peer during operation Op. The
// peer is declared dead cluster-wide; healing pipelines abort the
// generation and run again, strict ones surface this error from Run.
type FaultError struct {
	Worker   int
	Peer     int
	Op       string
	Attempts int
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("cluster: worker %d: peer %d unresponsive in %s after %d attempts",
		e.Worker, e.Peer, e.Op, e.Attempts)
}

// CrashError reports that a fault-injected worker died at its OpIndex-th
// top-level communication operation. It marks the injected failure itself,
// not a bug; healing pipelines respawn the worker in a new generation.
type CrashError struct {
	Worker  int
	Op      string
	OpIndex int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("cluster: worker %d crashed at op %d (%s)", e.Worker, e.OpIndex, e.Op)
}

// Options tunes the fault-tolerance layer.
type Options struct {
	// RecvTimeout is the base per-attempt receive deadline; each retry
	// doubles it (exponential backoff). Default 2s — generous enough that
	// fault-free pipelines never trip it, finite so nothing blocks forever.
	RecvTimeout time.Duration
	// RetryBudget is the per-message cap on timed-out receive attempts
	// before the sender is declared dead. Default 4.
	RetryBudget int
	// Transport is the fabric model; nil means reliable delivery.
	Transport Transport
	// Trace, when non-nil, records fabric counters (cluster.bytes,
	// cluster.messages, cluster.retransmits, cluster.timeouts,
	// cluster.backoff_wait_ns, cluster.collective.rounds/bytes), latency
	// histograms per collective kind, and one span per worker collective,
	// on display track worker-ID+1.
	Trace *obs.Trace
	// Flight, when non-nil, records each worker's completed collectives
	// and crash events into the per-rank flight recorder, so a postmortem
	// can name a dead rank's last completed collective.
	Flight *telemetry.Recorder
}

func (o Options) withDefaults() Options {
	if o.RecvTimeout <= 0 {
		o.RecvTimeout = 2 * time.Second
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 4
	}
	if o.Transport == nil {
		o.Transport = reliableTransport{}
	}
	return o
}

// mailboxCap bounds each pairwise channel; overflow behaves as a drop
// (healed by retry) so a slow or dead receiver can never block a sender.
const mailboxCap = 256

// sendLog is the sender-side retransmit buffer for one (from, to) pair.
// A message stays buffered until the receiver acknowledges it (in-order
// delivery doubles as the ack), so receive-deadline expiry can trigger a
// retransmission of exactly the awaited sequence number.
type sendLog struct {
	mu      sync.Mutex
	nextSeq uint64
	buf     map[uint64]message
}

func (l *sendLog) push(payload []float64) message {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq++
	m := message{seq: l.nextSeq, payload: payload, sum: checksum(payload)}
	if l.buf == nil {
		l.buf = make(map[uint64]message)
	}
	l.buf[m.seq] = m
	return m
}

func (l *sendLog) lookup(seq uint64) (message, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m, ok := l.buf[seq]
	return m, ok
}

// ack prunes everything up to and including seq.
func (l *sendLog) ack(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := range l.buf {
		if s <= seq {
			delete(l.buf, s)
		}
	}
}

// recvState tracks in-order delivery for one (to, from) pair. It is only
// touched by the owning worker's goroutine.
type recvState struct {
	delivered uint64
	stash     map[uint64][]float64 // out-of-order arrivals awaiting their turn
}

// collectiveAgg accumulates per-rank buffer maxima for the collective in
// flight so the α–β round is accounted with the global maximum across
// ranks, not rank 0's local view (uneven per-peer buffers are exactly the
// adaptive-decomposition case).
type collectiveAgg struct {
	mu       sync.Mutex
	arrived  int
	maxBytes int
	sumBytes int64 // fabric bytes every arrived rank will actually ship
}

// Cluster is a set of in-process workers connected by counted channels
// behind a pluggable (possibly fault-injecting) transport.
type Cluster struct {
	P      int
	Params Params
	Stats  Stats

	opts      Options
	transport Transport
	boxes     [][]chan message // boxes[to][from]
	logs      [][]*sendLog     // logs[from][to]
	recvs     [][]*recvState   // recvs[to][from]
	dead      []atomic.Bool
	ops       []atomic.Int64 // per-worker top-level op counter (crash points)
	epoch     atomic.Uint32  // bumped by ResetEpoch; stamps every message
	agg       collectiveAgg
}

// New creates a cluster of p workers on a reliable fabric.
func New(p int, params Params) (*Cluster, error) {
	return NewWithOptions(p, params, Options{})
}

// NewWithOptions creates a cluster with explicit fault-tolerance options.
func NewWithOptions(p int, params Params, opts Options) (*Cluster, error) {
	if p < 1 {
		return nil, fmt.Errorf("cluster: worker count %d must be ≥ 1", p)
	}
	c := &Cluster{P: p, Params: params, opts: opts.withDefaults()}
	c.transport = c.opts.Transport
	c.Stats.attachTrace(c.opts.Trace)
	c.boxes = make([][]chan message, p)
	c.logs = make([][]*sendLog, p)
	c.recvs = make([][]*recvState, p)
	for i := 0; i < p; i++ {
		c.boxes[i] = make([]chan message, p)
		c.logs[i] = make([]*sendLog, p)
		c.recvs[i] = make([]*recvState, p)
		for j := 0; j < p; j++ {
			c.boxes[i][j] = make(chan message, mailboxCap)
			c.logs[i][j] = &sendLog{}
			c.recvs[i][j] = &recvState{stash: make(map[uint64][]float64)}
		}
	}
	c.dead = make([]atomic.Bool, p)
	c.ops = make([]atomic.Int64, p)
	return c, nil
}

func (c *Cluster) isDead(id int) bool { return c.dead[id].Load() }

// DeadWorkers returns the sorted ranks declared dead so far.
func (c *Cluster) DeadWorkers() []int {
	var out []int
	for i := range c.dead {
		if c.dead[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

func (c *Cluster) declareDead(id int) {
	if !c.dead[id].Swap(true) {
		c.Stats.bumpDeadWorkers()
		c.maybeFlushCollective()
	}
}

// DeclareDead marks rank dead cluster-wide, exactly as if its peers had
// exhausted their retry budgets against it. External supervisors (the
// heartbeat monitor in internal/supervise) use this to fail a silent
// worker fast instead of waiting for every peer's deadline chain.
func (c *Cluster) DeclareDead(rank int) {
	if rank >= 0 && rank < c.P {
		c.declareDead(rank)
	}
}

// Epoch returns the current cluster epoch (bumped by each ResetEpoch).
func (c *Cluster) Epoch() uint32 { return c.epoch.Load() }

// ResetEpoch prepares the cluster for a respawned generation of workers:
// it bumps the epoch (so straggling deliveries from the old generation —
// including delay-injected time.AfterFunc deliveries still in flight —
// are discarded on receive), clears the dead set, drains every mailbox,
// and resets the sequence/retransmit state of every pair. Per-worker op
// counters are deliberately NOT reset: one-shot crash points key on the
// monotonic op index and must not re-fire on the replacement worker.
//
// Contract: call only while no worker goroutines are running (between
// RunAll rounds); concurrent use with live workers races on the pair
// state.
func (c *Cluster) ResetEpoch() {
	c.epoch.Add(1)
	for i := 0; i < c.P; i++ {
		c.dead[i].Store(false)
		for j := 0; j < c.P; j++ {
			for {
				select {
				case <-c.boxes[i][j]:
					continue
				default:
				}
				break
			}
			c.logs[i][j] = &sendLog{}
			c.recvs[i][j] = &recvState{stash: make(map[uint64][]float64)}
		}
	}
	c.agg.mu.Lock()
	c.agg.arrived, c.agg.maxBytes, c.agg.sumBytes = 0, 0, 0
	c.agg.mu.Unlock()
}

func (c *Cluster) liveCount() int {
	n := 0
	for i := range c.dead {
		if !c.dead[i].Load() {
			n++
		}
	}
	return n
}

// recordCollectiveArrival folds one rank's largest outgoing buffer (the
// model input) and its total outgoing fabric bytes (the measurement) into
// the in-flight collective; when every live rank has arrived the round is
// accounted once with the global maximum.
func (c *Cluster) recordCollectiveArrival(localMaxBytes int, localSumBytes int64) {
	c.agg.mu.Lock()
	c.agg.arrived++
	if localMaxBytes > c.agg.maxBytes {
		c.agg.maxBytes = localMaxBytes
	}
	c.agg.sumBytes += localSumBytes
	c.agg.mu.Unlock()
	c.maybeFlushCollective()
}

func (c *Cluster) maybeFlushCollective() {
	live := c.liveCount()
	c.agg.mu.Lock()
	if c.agg.arrived > 0 && c.agg.arrived >= live {
		participants := c.agg.arrived
		if participants < 2 {
			participants = 2 // degenerate: still account one exchange
		}
		if c.P == 1 {
			participants = 1
		}
		c.Stats.recordCollective(c.agg.maxBytes, c.agg.sumBytes, participants, c.Params)
		c.agg.arrived = 0
		c.agg.maxBytes = 0
		c.agg.sumBytes = 0
	}
	c.agg.mu.Unlock()
}

// transmit pushes one attempt through the transport into the mailbox,
// stamped with the current epoch so post-reset receivers can discard it
// if it arrives late (delay injection crossing a generation boundary).
func (c *Cluster) transmit(from, to int, m message, attempt int) {
	m.epoch = c.epoch.Load()
	box := c.boxes[to][from]
	c.transport.Transmit(from, to, m, attempt, func(dm message) {
		select {
		case box <- dm:
		default: // mailbox overflow behaves as a drop; retry heals it
		}
	})
}

// Worker is one participant's view of the cluster.
type Worker struct {
	ID int
	c  *Cluster
}

// crashPoint advances the worker's top-level op counter and fires the
// transport's injected crash, if one is scheduled here.
func (w *Worker) crashPoint(op string) error {
	n := int(w.c.ops[w.ID].Add(1))
	if w.c.transport.Crash(w.ID, n) {
		w.c.declareDead(w.ID)
		err := &CrashError{Worker: w.ID, Op: op, OpIndex: n}
		w.c.opts.Flight.Crash(w.ID, op, err)
		return err
	}
	return nil
}

// Run executes fn concurrently on every worker and waits for completion.
// The first error (if any) is returned. A worker that returns early is
// marked dead so peers blocked on it fail over their receive deadlines
// instead of deadlocking.
func (c *Cluster) Run(fn func(w *Worker) error) error {
	for _, err := range c.RunAll(fn) {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunAll executes fn concurrently on every worker and returns every
// worker's error (nil entries for clean completions). Healing pipelines
// use this to tell injected crashes and dead peers, which cost a
// generation, from real failures.
func (c *Cluster) RunAll(fn func(w *Worker) error) []error {
	errs := make([]error, c.P)
	var wg sync.WaitGroup
	for i := 0; i < c.P; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(&Worker{ID: i, c: c})
			if errs[i] != nil {
				// A failed worker will never send again: let peers'
				// deadlines resolve into FaultError instead of waiting
				// out the full retry budget one message at a time.
				c.declareDead(i)
			}
		}(i)
	}
	wg.Wait()
	return errs
}

// sendRaw ships data to peer `to` through the transport and keeps it in
// the retransmit buffer until acknowledged. Self-sends bypass the fabric
// and are uncounted, as on a real node.
func (w *Worker) sendRaw(to int, data []float64, timed bool) {
	log := w.c.logs[w.ID][to]
	m := log.push(data)
	if to == w.ID {
		m.epoch = w.c.epoch.Load()
		w.c.boxes[to][w.ID] <- m
		return
	}
	if w.c.isDead(to) {
		return // no fabric traffic toward a declared-dead peer
	}
	w.c.Stats.recordMessage(8*len(data), w.c.Params, timed)
	w.c.transmit(w.ID, to, m, 0)
}

// Send delivers data to peer `to` (counted, α–β timed).
func (w *Worker) Send(to int, data []float64) error {
	if err := w.crashPoint("send"); err != nil {
		return err
	}
	w.sendRaw(to, data, true)
	return nil
}

// recvRaw blocks until the next in-order message from peer `from` arrives,
// survives drops/duplicates/corruption/delay via checksum validation,
// sequence tracking, and deadline-triggered retransmission with
// exponential backoff, and declares the peer dead once the retry budget
// is exhausted.
func (w *Worker) recvRaw(from int, op string) ([]float64, error) {
	c := w.c
	rs := c.recvs[w.ID][from]
	want := rs.delivered + 1
	if buf, ok := rs.stash[want]; ok {
		delete(rs.stash, want)
		rs.delivered = want
		c.logs[from][w.ID].ack(want)
		return buf, nil
	}
	if from != w.ID && c.isDead(from) {
		return nil, &FaultError{Worker: w.ID, Peer: from, Op: op}
	}
	box := c.boxes[w.ID][from]
	timeout := c.opts.RecvTimeout
	for attempt := 1; ; attempt++ {
		timer := time.NewTimer(timeout)
	wait:
		for {
			select {
			case m := <-box:
				if m.epoch != c.epoch.Load() {
					continue // straggler from a pre-respawn generation
				}
				if m.sum != checksum(m.payload) {
					c.Stats.bumpCorrupt()
					continue
				}
				if m.seq <= rs.delivered {
					c.Stats.bumpDup()
					continue
				}
				if m.seq > want {
					rs.stash[m.seq] = m.payload
					continue
				}
				timer.Stop()
				rs.delivered = want
				c.logs[from][w.ID].ack(want)
				return m.payload, nil
			case <-timer.C:
				break wait
			}
		}
		c.Stats.bumpTimeout()
		c.opts.Trace.Counter("cluster.backoff_wait_ns").Add(int64(timeout))
		if from != w.ID && c.isDead(from) {
			return nil, &FaultError{Worker: w.ID, Peer: from, Op: op, Attempts: attempt}
		}
		if attempt >= c.opts.RetryBudget {
			c.declareDead(from)
			return nil, &FaultError{Worker: w.ID, Peer: from, Op: op, Attempts: attempt}
		}
		// The missing ack IS the nack: pull the awaited sequence number
		// from the sender's retransmit buffer and push it through the
		// fabric again. An empty buffer means the sender is merely slow;
		// keep waiting under the widened deadline.
		if m, ok := c.logs[from][w.ID].lookup(want); ok {
			c.Stats.recordRetransmit(8*len(m.payload), c.Params)
			c.transmit(from, w.ID, m, attempt)
		}
		timeout *= 2
	}
}

// Recv blocks until a message from peer `from` arrives, bounded by the
// cluster's receive deadline and retry budget.
func (w *Worker) Recv(from int) ([]float64, error) {
	if err := w.crashPoint("recv"); err != nil {
		return nil, err
	}
	return w.recvRaw(from, "recv")
}

// AllToAll performs one personalized all-to-all: out[peer] is sent to each
// peer, and the returned slice holds in[from] for every rank. One
// collective round is accounted with the α–β model using the global
// maximum pairwise buffer across ranks. Any dead peer makes the strict
// variant fail with a typed FaultError; AllToAllFT lists dead peers
// instead.
func (w *Worker) AllToAll(out [][]float64) ([][]float64, error) {
	in, missing, err := w.AllToAllFT(out)
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		return nil, &FaultError{Worker: w.ID, Peer: missing[0], Op: "all-to-all", Attempts: w.c.opts.RetryBudget}
	}
	return in, nil
}

// AllToAllFT is the fault-tolerant all-to-all: dead peers' slots come back
// nil and their ranks are listed in missing, so the caller decides what a
// death costs (the healing MASSIF solve parks at its generation barrier).
// err is non-nil only for this worker's own injected crash.
func (w *Worker) AllToAllFT(out [][]float64) (in [][]float64, missing []int, err error) {
	if len(out) != w.c.P {
		return nil, nil, fmt.Errorf("cluster: all-to-all needs %d buffers, got %d", w.c.P, len(out))
	}
	if err := w.crashPoint("all-to-all"); err != nil {
		return nil, nil, err
	}
	localMax := 0
	localSum := int64(0)
	sp := w.c.opts.Trace.StartTrack("cluster.alltoall", w.ID+1)
	defer func() {
		d := sp.End()
		w.c.Stats.a2aH.Observe(d)
		if err == nil {
			w.c.opts.Flight.Collective(w.ID, "all-to-all", localSum, d)
		}
	}()
	for to, b := range out {
		if to == w.ID {
			continue // self-copy never crosses the fabric
		}
		if 8*len(b) > localMax {
			localMax = 8 * len(b)
		}
		if !w.c.isDead(to) {
			localSum += int64(8 * len(b)) // what sendRaw will actually count
		}
	}
	w.c.recordCollectiveArrival(localMax, localSum)
	for to := 0; to < w.c.P; to++ {
		w.sendRaw(to, out[to], false)
	}
	in = make([][]float64, w.c.P)
	for from := 0; from < w.c.P; from++ {
		if from != w.ID && w.c.isDead(from) {
			missing = append(missing, from)
			continue
		}
		buf, rerr := w.recvRaw(from, "all-to-all")
		if rerr != nil {
			var fe *FaultError
			if errors.As(rerr, &fe) {
				missing = append(missing, from)
				continue
			}
			return nil, nil, rerr
		}
		in[from] = buf
	}
	sort.Ints(missing)
	return in, missing, nil
}

// AllReduceSum sums the per-worker vectors elementwise across the cluster
// and returns the total on every worker (gather-to-root + broadcast,
// counted as 2(P−1) α–β-timed messages). A dead worker makes this strict
// variant fail; AllReduceSumFT returns the dead mask instead.
func (w *Worker) AllReduceSum(local []float64) ([]float64, error) {
	total, mask, err := w.AllReduceSumFT(local)
	if err != nil {
		return nil, err
	}
	for peer, d := range mask {
		if d {
			return nil, &FaultError{Worker: w.ID, Peer: peer, Op: "all-reduce", Attempts: w.c.opts.RetryBudget}
		}
	}
	return total, nil
}

// AllReduceSumFT is the fault-tolerant all-reduce: the root (rank 0) sums the
// contributions of every live worker and broadcasts the total together
// with the cluster's dead-worker mask, so every survivor leaves the
// operation with an identical view of both the sum and the failure state —
// the agreement round the healing MASSIF solve keys its generation abort
// on. err is non-nil for this worker's own crash or a dead root.
func (w *Worker) AllReduceSumFT(local []float64) (total []float64, dead []bool, err error) {
	if err := w.crashPoint("all-reduce"); err != nil {
		return nil, nil, err
	}
	sp := w.c.opts.Trace.StartTrack("cluster.allreduce", w.ID+1)
	defer func() {
		d := sp.End()
		w.c.Stats.arH.Observe(d)
		if err == nil {
			w.c.opts.Flight.Collective(w.ID, "all-reduce", int64(8*len(local)), d)
		}
	}()
	c := w.c
	if c.P == 1 {
		out := make([]float64, len(local))
		copy(out, local)
		return out, make([]bool, 1), nil
	}
	const root = 0
	if w.ID == root {
		total = make([]float64, len(local))
		copy(total, local)
		for from := 1; from < c.P; from++ {
			if c.isDead(from) {
				continue
			}
			part, rerr := w.recvRaw(from, "all-reduce")
			if rerr != nil {
				var fe *FaultError
				if errors.As(rerr, &fe) {
					continue // declared dead; reflected in the mask below
				}
				return nil, nil, rerr
			}
			for i := range total {
				if i < len(part) {
					total[i] += part[i]
				}
			}
		}
		mask := make([]bool, c.P)
		bits := 0.0
		for i := range mask {
			mask[i] = c.isDead(i)
			if mask[i] {
				bits += float64(uint64(1) << i)
			}
		}
		payload := make([]float64, 1+len(total))
		payload[0] = bits
		copy(payload[1:], total)
		for to := 0; to < c.P; to++ {
			if to != root && !c.isDead(to) {
				w.sendRaw(to, payload, true)
			}
		}
		return total, mask, nil
	}
	if c.isDead(root) {
		return nil, nil, &FaultError{Worker: w.ID, Peer: root, Op: "all-reduce"}
	}
	w.sendRaw(root, local, true)
	payload, rerr := w.recvRaw(root, "all-reduce")
	if rerr != nil {
		return nil, nil, rerr
	}
	if len(payload) < 1 {
		return nil, nil, fmt.Errorf("cluster: malformed all-reduce broadcast")
	}
	bits := uint64(payload[0])
	mask := make([]bool, c.P)
	for i := range mask {
		mask[i] = bits&(1<<i) != 0
	}
	return payload[1:], mask, nil
}

// Broadcast sends data from root to every other live worker (counted as
// P−1 α–β-timed messages); all workers return the payload. A non-root
// worker whose root dies gets a typed FaultError.
func (w *Worker) Broadcast(root int, data []float64) (out []float64, err error) {
	if err := w.crashPoint("broadcast"); err != nil {
		return nil, err
	}
	sp := w.c.opts.Trace.StartTrack("cluster.broadcast", w.ID+1)
	defer func() {
		d := sp.End()
		w.c.Stats.bcH.Observe(d)
		if err == nil {
			w.c.opts.Flight.Collective(w.ID, "broadcast", int64(8*len(data)), d)
		}
	}()
	if w.ID == root {
		for to := 0; to < w.c.P; to++ {
			if to != root && !w.c.isDead(to) {
				w.sendRaw(to, data, true)
			}
		}
		return data, nil
	}
	if w.c.isDead(root) {
		return nil, &FaultError{Worker: w.ID, Peer: root, Op: "broadcast"}
	}
	return w.recvRaw(root, "broadcast")
}
