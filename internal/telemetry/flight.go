package telemetry

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// EventKind classifies one flight-recorder entry.
type EventKind uint8

const (
	// EventNote is a free-form annotation (generation resets, solver
	// milestones).
	EventNote EventKind = iota
	// EventHeartbeat is a liveness beat from a worker at an iteration.
	EventHeartbeat
	// EventCollective is one completed collective on a worker.
	EventCollective
	// EventCheckpoint is one durable checkpoint deposit.
	EventCheckpoint
	// EventSpan is a completed timed region worth keeping in recent
	// history (iteration compute phases, recovery rounds).
	EventSpan
	// EventCrash is a worker death: an injected transport crash, a retry
	// exhaustion, or a heartbeat-monitor kill.
	EventCrash
	// EventHealth is a fleet device supervision transition
	// (healthy/suspect/dead/probation), recorded on the device's ring so a
	// postmortem names the last health event before an incident.
	EventHealth
)

func (k EventKind) String() string {
	switch k {
	case EventNote:
		return "note"
	case EventHeartbeat:
		return "heartbeat"
	case EventCollective:
		return "collective"
	case EventCheckpoint:
		return "checkpoint"
	case EventSpan:
		return "span"
	case EventCrash:
		return "CRASH"
	case EventHealth:
		return "health"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one flight-recorder entry. Events are small value types; the
// ring never allocates per Record as long as Op/Detail are static strings.
type Event struct {
	At     time.Duration // offset from the recorder's epoch
	Kind   EventKind
	Rank   int
	Iter   int
	Op     string // collective op, span name, crash site, or note text
	Bytes  int64
	Dur    time.Duration
	Detail string // error text for crashes, free text for notes
}

func (e Event) format() string {
	s := fmt.Sprintf("%12s  %-10s rank=%d", e.At.Round(time.Microsecond), e.Kind, e.Rank)
	if e.Iter >= 0 {
		s += fmt.Sprintf(" iter=%d", e.Iter)
	}
	if e.Op != "" {
		s += " op=" + e.Op
	}
	if e.Bytes > 0 {
		s += fmt.Sprintf(" bytes=%d", e.Bytes)
	}
	if e.Dur > 0 {
		s += fmt.Sprintf(" dur=%s", e.Dur.Round(time.Microsecond))
	}
	if e.Detail != "" {
		s += " — " + e.Detail
	}
	return s
}

// ring is one rank's bounded history: a fixed buffer overwritten in
// arrival order under a per-rank mutex, so concurrent ranks never contend
// with each other and a Record is a lock, two stores, and an unlock.
type ring struct {
	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever recorded; buf[(total-1) % cap] is newest
}

func (r *ring) record(ev Event) {
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = ev
	r.total++
	r.mu.Unlock()
}

// events returns the retained history oldest-first.
func (r *ring) events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	capN := uint64(len(r.buf))
	start := uint64(0)
	count := n
	if n > capN {
		start = n - capN
		count = capN
	}
	out := make([]Event, 0, count)
	for i := start; i < n; i++ {
		out = append(out, r.buf[i%capN])
	}
	return out
}

// DefaultRingSize is the per-rank event capacity when NewRecorder is
// given a non-positive size: enough for several iterations of heartbeat +
// checkpoint + collective traffic per rank at ~56 bytes an event.
const DefaultRingSize = 256

// Recorder is the per-rank flight recorder: P independent fixed-size
// rings of recent events. All methods are safe for concurrent use and
// nil-safe (a nil *Recorder records nothing), so instrumented layers
// thread a possibly-nil recorder exactly like an obs trace.
type Recorder struct {
	epoch time.Time
	rings []*ring
}

// NewRecorder creates a recorder for ranks 0..p-1 with the given per-rank
// ring capacity (≤ 0 selects DefaultRingSize). Events for out-of-range
// ranks are clamped to the nearest ring rather than dropped — a postmortem
// with a misfiled event beats one with a silently missing event.
func NewRecorder(p, size int) *Recorder {
	if p < 1 {
		p = 1
	}
	if size <= 0 {
		size = DefaultRingSize
	}
	r := &Recorder{epoch: time.Now(), rings: make([]*ring, p)}
	for i := range r.rings {
		r.rings[i] = &ring{buf: make([]Event, size)}
	}
	return r
}

// Ranks returns the number of per-rank rings. Nil-safe (zero).
func (r *Recorder) Ranks() int {
	if r == nil {
		return 0
	}
	return len(r.rings)
}

func (r *Recorder) ringFor(rank int) *ring {
	if rank < 0 {
		rank = 0
	}
	if rank >= len(r.rings) {
		rank = len(r.rings) - 1
	}
	return r.rings[rank]
}

// Record appends ev (stamped with the current epoch offset) to its rank's
// ring. Nil-safe.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	ev.At = time.Since(r.epoch)
	r.ringFor(ev.Rank).record(ev)
}

// Heartbeat records a liveness beat. Nil-safe.
func (r *Recorder) Heartbeat(rank, iter int) {
	r.Record(Event{Kind: EventHeartbeat, Rank: rank, Iter: iter})
}

// Collective records one completed collective round on a worker. Nil-safe.
func (r *Recorder) Collective(rank int, op string, bytes int64, dur time.Duration) {
	r.Record(Event{Kind: EventCollective, Rank: rank, Iter: -1, Op: op, Bytes: bytes, Dur: dur})
}

// Checkpoint records one durable checkpoint deposit. Nil-safe.
func (r *Recorder) Checkpoint(rank, iter int, bytes int64) {
	r.Record(Event{Kind: EventCheckpoint, Rank: rank, Iter: iter, Bytes: bytes})
}

// Crash records a worker death at the given site. Nil-safe.
func (r *Recorder) Crash(rank int, op string, err error) {
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	r.Record(Event{Kind: EventCrash, Rank: rank, Iter: -1, Op: op, Detail: detail})
}

// Health records a fleet device supervision transition on the device's
// ring (rank = device index): state is the new Health state name, detail
// the transition cause. Nil-safe.
func (r *Recorder) Health(rank int, state, detail string) {
	r.Record(Event{Kind: EventHealth, Rank: rank, Iter: -1, Op: state, Detail: detail})
}

// Note records a free-form annotation on a rank's ring. Nil-safe.
func (r *Recorder) Note(rank int, text string) {
	r.Record(Event{Kind: EventNote, Rank: rank, Iter: -1, Op: text})
}

// RankSummary condenses one rank's retained history to the facts a
// postmortem reader asks first.
type RankSummary struct {
	Rank           int
	Events         int
	LastHeartbeat  *Event // nil if none retained
	LastCollective *Event
	LastCheckpoint *Event
	LastHealth     *Event // last fleet health transition (suspect/dead/…)
	Crash          *Event
}

// Summary computes per-rank summaries from the retained history. Nil-safe
// (nil slice).
func (r *Recorder) Summary() []RankSummary {
	if r == nil {
		return nil
	}
	out := make([]RankSummary, len(r.rings))
	for rank, rg := range r.rings {
		evs := rg.events()
		s := RankSummary{Rank: rank, Events: len(evs)}
		for i := range evs {
			ev := &evs[i]
			switch ev.Kind {
			case EventHeartbeat:
				s.LastHeartbeat = ev
			case EventCollective:
				s.LastCollective = ev
			case EventCheckpoint:
				s.LastCheckpoint = ev
			case EventHealth:
				s.LastHealth = ev
			case EventCrash:
				s.Crash = ev
			}
		}
		out[rank] = s
	}
	return out
}

// WritePostmortem writes the human-readable crash dump: a per-rank
// summary table (last heartbeat, last completed collective, last durable
// checkpoint, crash site) followed by each rank's retained event history,
// oldest first. Nil-safe: a nil recorder writes a placeholder line.
func (r *Recorder) WritePostmortem(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "(no flight recorder attached)")
		return err
	}
	if _, err := fmt.Fprintf(w, "FLIGHT RECORDER POSTMORTEM — %d ranks, epoch %s\n\n",
		len(r.rings), r.epoch.Format(time.RFC3339)); err != nil {
		return err
	}
	evDesc := func(ev *Event) string {
		if ev == nil {
			return "—"
		}
		switch ev.Kind {
		case EventHeartbeat:
			return fmt.Sprintf("iter=%d at t=%s", ev.Iter, ev.At.Round(time.Microsecond))
		case EventCollective:
			return fmt.Sprintf("%s (%d B) at t=%s", ev.Op, ev.Bytes, ev.At.Round(time.Microsecond))
		case EventCheckpoint:
			return fmt.Sprintf("iter=%d (%d B) at t=%s", ev.Iter, ev.Bytes, ev.At.Round(time.Microsecond))
		case EventCrash:
			return fmt.Sprintf("in %s at t=%s: %s", ev.Op, ev.At.Round(time.Microsecond), ev.Detail)
		case EventHealth:
			s := fmt.Sprintf("%s at t=%s", ev.Op, ev.At.Round(time.Microsecond))
			if ev.Detail != "" {
				s += " — " + ev.Detail
			}
			return s
		default:
			return ev.format()
		}
	}
	for _, s := range r.Summary() {
		status := "alive"
		if s.Crash != nil {
			status = "CRASHED " + evDesc(s.Crash)
		}
		if _, err := fmt.Fprintf(w,
			"rank %d: %s\n  last heartbeat:  %s\n  last collective: %s\n  last checkpoint: %s\n",
			s.Rank, status, evDesc(s.LastHeartbeat), evDesc(s.LastCollective), evDesc(s.LastCheckpoint)); err != nil {
			return err
		}
		if s.LastHealth != nil {
			if _, err := fmt.Fprintf(w, "  last health:     %s\n", evDesc(s.LastHealth)); err != nil {
				return err
			}
		}
	}
	for rank, rg := range r.rings {
		evs := rg.events()
		if _, err := fmt.Fprintf(w, "\n--- rank %d: %d retained events (oldest first) ---\n", rank, len(evs)); err != nil {
			return err
		}
		for _, ev := range evs {
			if _, err := fmt.Fprintln(w, ev.format()); err != nil {
				return err
			}
		}
	}
	return nil
}

// DumpFile writes the postmortem to path (0644, truncating). Nil-safe: a
// nil recorder still writes the placeholder so the artifact always exists.
func (r *Recorder) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WritePostmortem(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
