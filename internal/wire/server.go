package wire

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/serve"
	"lowcomm3d/internal/telemetry"
)

// ServerOptions configures a wire server.
type ServerOptions struct {
	// KeepAlive is the ping interval on idle connections (default 2s).
	KeepAlive time.Duration
	// IdleTimeout is how long a connection may stay silent before it is
	// considered half-open and detached (default 3×KeepAlive). It is
	// also the per-frame write deadline.
	IdleTimeout time.Duration
	// SessionTTL is how long a detached session (and its undelivered
	// results) survives awaiting a resume (default 30s).
	SessionTTL time.Duration
	// DrainGrace bounds how long Drain waits for completed results to
	// finish streaming to attached clients (default 2s). Engine work
	// always runs to completion; only the final delivery is abandoned.
	DrainGrace time.Duration
	// ChunkBytes is the result chunk payload size
	// (default sample.DefaultChunkBytes).
	ChunkBytes int
	// Window is the maximum unacked result bytes in flight per job
	// (default 4×ChunkBytes) — the streaming-side backpressure bound.
	Window int64

	// Trace receives the server's wire.* metrics; nil creates a private
	// trace.
	Trace *obs.Trace
	// Flight, when non-nil, records session lifecycle events (opens,
	// resumes, detaches, corrupt frames, expiries) for postmortems.
	Flight *telemetry.Recorder

	// Jobs, when non-nil, mints a per-job lifecycle timeline at submit
	// frame receipt; the TraceID is echoed in every chunk, done, and
	// job-scoped status frame, threaded through the engine via context,
	// and survives session resume. Share the collector with the engine's
	// serve.Options.Jobs to get one end-to-end timeline per request.
	Jobs *jobtrace.Collector

	// ConnWrap, when non-nil, wraps every accepted connection — the
	// chaos tests' fault-injection hook.
	ConnWrap func(net.Conn) net.Conn
}

func (o *ServerOptions) defaults() {
	if o.KeepAlive <= 0 {
		o.KeepAlive = 2 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 3 * o.KeepAlive
	}
	if o.SessionTTL <= 0 {
		o.SessionTTL = 30 * time.Second
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 2 * time.Second
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = sample.DefaultChunkBytes
	}
	if o.Window <= 0 {
		o.Window = 4 * int64(o.ChunkBytes)
	}
}

// Server serves the wire protocol over a listener on top of a
// serve.Engine. Create with NewServer; stop with Drain (graceful) or
// Close.
type Server struct {
	eng    *serve.Engine
	ln     net.Listener
	opt    ServerOptions
	tr     *obs.Trace
	flight *telemetry.Recorder

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on: attach, detach, ack, cancel, drain, expiry
	sessions map[string]*session
	nextRank int
	draining bool

	stopStream atomic.Bool // drain grace expired: pumps abandon delivery

	connWG   sync.WaitGroup // accept loop, per-conn readers and pingers
	jobWG    sync.WaitGroup // per-job compute+stream goroutines
	reapStop chan struct{}
	reapDone chan struct{}

	cSessOpened, cSessResumed, cSessExpired      *obs.Counter
	cJobs, cJobsDone, cJobsRejected, cJobsFailed *obs.Counter
	cJobsCancelled                               *obs.Counter
	cChunks, cChunkBytes, cFramesCorrupt, cPings *obs.Counter
	gSessions                                    *obs.Gauge
	hStream                                      *obs.Histogram
}

// session is one client identity: the durable state that survives
// connection loss. All fields below cur are guarded by Server.mu.
type session struct {
	token string
	rank  int // flight-recorder ring

	cur        *connState // attached connection; nil while detached
	jobs       map[uint64]*wireJob
	detachedAt time.Time
	expired    bool
}

// wireJob is one submitted job's durable state. Guarded by Server.mu
// except the immutable identity fields and ctx/cancel.
type wireJob struct {
	id     uint64
	sess   *session
	cancel context.CancelFunc

	stream []byte     // encoded compressed result; nil until computed
	failed *statusMsg // terminal failure; nil unless failed
	acked  int64      // highest client-acked contiguous offset
	sent   int64      // next unsent offset on the current attachment
	done   bool       // fully acked; Done sent
	start  time.Time

	// trace is the lifecycle timeline minted at submit receipt (nil:
	// tracing off); traceID is its stable wire-echoed identity. The
	// timeline outlives connections — a resumed session keeps it.
	trace   *jobtrace.Job
	traceID uint64
}

// connState is one live connection: a write mutex so pumps, the reader's
// replies, and the keepalive pinger interleave whole frames.
type connState struct {
	c      net.Conn
	srv    *Server
	sess   *session // set after handshake
	wmu    sync.Mutex
	closed atomic.Bool
}

// write sends one frame as a single conn.Write under the write deadline.
func (cs *connState) write(t FrameType, payload []byte) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	if cs.closed.Load() {
		return net.ErrClosed
	}
	cs.c.SetWriteDeadline(time.Now().Add(cs.srv.opt.IdleTimeout))
	_, err := cs.c.Write(EncodeFrame(t, payload))
	return err
}

func (cs *connState) close() {
	if cs.closed.CompareAndSwap(false, true) {
		cs.c.Close()
	}
}

// NewServer starts serving the engine over ln. The engine is borrowed,
// not owned: Drain stops the wire front door but leaves the engine
// running for its owner to drain.
func NewServer(eng *serve.Engine, ln net.Listener, opts ServerOptions) *Server {
	opts.defaults()
	s := &Server{
		eng:      eng,
		ln:       ln,
		opt:      opts,
		tr:       opts.Trace,
		flight:   opts.Flight,
		sessions: make(map[string]*session),
		reapStop: make(chan struct{}),
		reapDone: make(chan struct{}),
	}
	if s.tr == nil {
		s.tr = obs.New()
	}
	s.cond = sync.NewCond(&s.mu)

	s.cSessOpened = s.tr.Counter("wire.sessions_opened")
	s.cSessResumed = s.tr.Counter("wire.sessions_resumed")
	s.cSessExpired = s.tr.Counter("wire.sessions_expired")
	s.cJobs = s.tr.Counter("wire.jobs_submitted")
	s.cJobsDone = s.tr.Counter("wire.jobs_completed")
	s.cJobsRejected = s.tr.Counter("wire.jobs_rejected")
	s.cJobsFailed = s.tr.Counter("wire.jobs_failed")
	s.cJobsCancelled = s.tr.Counter("wire.jobs_cancelled")
	s.cChunks = s.tr.Counter("wire.chunks_sent")
	s.cChunkBytes = s.tr.Counter("wire.chunk_bytes_sent")
	s.cFramesCorrupt = s.tr.Counter("wire.frames_corrupt")
	s.cPings = s.tr.Counter("wire.pings_sent")
	s.gSessions = s.tr.Gauge("wire.sessions_live")
	s.hStream = s.tr.Histogram("wire.job_stream_seconds")

	s.connWG.Add(1)
	go s.acceptLoop()
	go s.reaper()
	return s
}

// Trace returns the server's metrics trace.
func (s *Server) Trace() *obs.Trace { return s.tr }

// Addr returns the listener address (for clients in tests).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Drain
		}
		if s.opt.ConnWrap != nil {
			c = s.opt.ConnWrap(c)
		}
		s.connWG.Add(1)
		go s.serveConn(c)
	}
}

// serveConn owns one connection: handshake, keepalive, then the frame
// dispatch loop until the peer goes away (or goes quiet past the idle
// deadline — the half-open case).
func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	cs := &connState{c: c, srv: s}
	defer s.detach(cs)

	// Handshake: the first frame must be a valid Hello.
	c.SetReadDeadline(time.Now().Add(s.opt.IdleTimeout))
	t, p, err := ReadFrame(c)
	if err != nil || t != FrameHello {
		if errors.Is(err, ErrFrameCorrupt) {
			s.noteCorrupt(nil, err)
		}
		return
	}
	hello, err := decodeHello(p)
	if err != nil || hello.Version != ProtoVersion {
		cs.write(FrameStatus, statusMsg{Code: StatusBadRequest, Msg: "unsupported hello"}.encode())
		return
	}
	sess, resumed := s.attach(hello.Token, cs)
	if sess == nil {
		cs.write(FrameStatus, statusMsg{Code: StatusClosing}.encode())
		return
	}
	cs.sess = sess
	if err := cs.write(FrameWelcome, welcomeMsg{Token: sess.token, Resumed: resumed}.encode()); err != nil {
		return
	}

	// Keepalive pinger: proves liveness to the peer while jobs run.
	pingStop := make(chan struct{})
	defer close(pingStop)
	s.connWG.Add(1)
	go s.pinger(cs, pingStop)

	for {
		c.SetReadDeadline(time.Now().Add(s.opt.IdleTimeout))
		t, p, err := ReadFrame(c)
		if err != nil {
			// Idle deadline, EOF, or corruption: the connection is done.
			// The session survives for SessionTTL either way.
			if errors.Is(err, ErrFrameCorrupt) {
				s.noteCorrupt(sess, err)
			}
			return
		}
		switch t {
		case FramePing:
			if cs.write(FramePong, nil) != nil {
				return
			}
		case FramePong:
			// Liveness proven by the read itself.
		case FrameSubmit:
			m, err := decodeSubmit(p)
			if err != nil {
				cs.write(FrameStatus, statusMsg{Code: StatusBadRequest, Msg: err.Error()}.encode())
				continue
			}
			s.handleSubmit(sess, cs, m)
		case FrameAck:
			if m, err := decodeAck(p); err == nil {
				s.handleAck(sess, m)
			}
		case FrameResume:
			m, err := decodeResume(p)
			if err != nil {
				cs.write(FrameStatus, statusMsg{Code: StatusBadRequest, Msg: err.Error()}.encode())
				continue
			}
			s.handleResume(sess, cs, m)
		case FrameCancel:
			if m, err := decodeCancel(p); err == nil {
				s.handleCancel(sess, m)
			}
		default:
			cs.write(FrameStatus, statusMsg{Code: StatusBadRequest,
				Msg: fmt.Sprintf("unexpected %v frame", t)}.encode())
		}
	}
}

func (s *Server) pinger(cs *connState, stop <-chan struct{}) {
	defer s.connWG.Done()
	tick := time.NewTicker(s.opt.KeepAlive)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if cs.write(FramePing, nil) != nil {
				return
			}
			s.cPings.Add(1)
		}
	}
}

func (s *Server) noteCorrupt(sess *session, err error) {
	s.cFramesCorrupt.Add(1)
	rank := 0
	if sess != nil {
		rank = sess.rank
	}
	s.flight.Crash(rank, "wire.read", err)
}

// attach resolves a Hello: resume the token's session if it is live,
// else open a fresh one. The new connection always wins — a stale
// half-open predecessor is closed. Returns nil only when draining.
func (s *Server) attach(token string, cs *connState) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions[token]; token != "" && sess != nil && !sess.expired {
		if old := sess.cur; old != nil && old != cs {
			old.close()
		}
		sess.cur = cs
		sess.detachedAt = time.Time{}
		// Streaming restarts from the last ack on the new connection;
		// anything in flight on the old one is presumed lost.
		for _, j := range sess.jobs {
			j.sent = j.acked
		}
		s.cond.Broadcast()
		s.cSessResumed.Add(1)
		s.flight.Note(sess.rank, "session resumed "+sess.token)
		return sess, true
	}
	if s.draining {
		return nil, false
	}
	sess := &session{token: newToken(), rank: s.nextRank, cur: cs, jobs: make(map[uint64]*wireJob)}
	s.nextRank++
	s.sessions[sess.token] = sess
	s.gSessions.Max(int64(len(s.sessions)))
	s.cSessOpened.Add(1)
	s.flight.Note(sess.rank, "session opened "+sess.token)
	s.cond.Broadcast()
	return sess, false
}

// detach clears cs from its session (if it is still the attached
// connection) and closes it. The session state stays for SessionTTL.
func (s *Server) detach(cs *connState) {
	s.mu.Lock()
	if sess := cs.sess; sess != nil && sess.cur == cs {
		sess.cur = nil
		sess.detachedAt = time.Now()
		s.flight.Note(sess.rank, "session detached "+sess.token)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	cs.close()
}

func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// handleSubmit registers the job and starts its compute+stream
// goroutine. Admission control itself lives in engine.Submit; rejection
// comes back as a typed status frame.
func (s *Server) handleSubmit(sess *session, cs *connState, m submitMsg) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cs.write(FrameStatus, statusMsg{Job: m.Job, Code: StatusClosing}.encode())
		return
	}
	if _, dup := sess.jobs[m.Job]; dup {
		s.mu.Unlock()
		cs.write(FrameStatus, statusMsg{Job: m.Job, Code: StatusBadRequest, Msg: "duplicate job id"}.encode())
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	if m.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, m.Deadline)
	}
	j := &wireJob{id: m.Job, sess: sess, cancel: cancel, start: time.Now()}
	if s.opt.Jobs != nil {
		// Mint the TraceID here, at frame receipt: the timeline covers
		// queueing and placement inside the engine AND the streaming tail,
		// and the id is echoed on every frame the client sees.
		j.trace = s.opt.Jobs.Start(m.Tenant)
		j.traceID = uint64(j.trace.ID())
	}
	sess.jobs[m.Job] = j
	s.jobWG.Add(1)
	s.mu.Unlock()
	s.cJobs.Add(1)
	go s.runJob(ctx, j, m)
}

// runJob executes one job against the engine and then streams its
// result until fully acked. It outlives the submitting connection: a
// reconnecting client resumes the same job from its ack offset.
func (s *Server) runJob(ctx context.Context, j *wireJob, m submitMsg) {
	defer s.jobWG.Done()
	defer j.cancel()
	box := grid.CubeAt(m.Lo, m.K)
	input := &grid.Field{Dim: grid.Cube(m.K), Data: m.Data}
	if j.trace != nil {
		ctx = jobtrace.NewContext(ctx, j.trace)
	}
	res, err := s.eng.Submit(ctx, m.Tenant, box, input)
	if err != nil {
		code, after := statusOf(err)
		st := statusMsg{Job: j.id, Trace: j.traceID, Code: code, RetryAfter: after, Msg: err.Error()}
		switch code {
		case StatusOverloadedQueue, StatusOverloadedMemory, StatusClosing:
			s.cJobsRejected.Add(1)
		case StatusCancelled, StatusDeadline:
			s.cJobsCancelled.Add(1)
		default:
			s.cJobsFailed.Add(1)
		}
		s.failJob(j, st)
		return
	}
	stream, err := res.Output.EncodeBytes()
	res.Release()
	if err != nil {
		s.cJobsFailed.Add(1)
		s.failJob(j, statusMsg{Job: j.id, Trace: j.traceID, Code: StatusInternal, Msg: err.Error()})
		return
	}
	s.mu.Lock()
	j.stream = stream
	s.cond.Broadcast()
	s.mu.Unlock()
	s.pump(j)
}

// failJob records a terminal failure and notifies the attached
// connection if there is one; a detached client learns the outcome from
// its Resume. Rejected jobs are forgotten immediately — the client
// resubmits under a fresh id — while the statusMsg stays on the session
// just long enough for an in-flight Resume to find it.
func (s *Server) failJob(j *wireJob, st statusMsg) {
	s.mu.Lock()
	j.failed = &st
	cs := j.sess.cur
	tj := j.trace
	j.trace = nil // terminal: only the echoed traceID remains
	s.cond.Broadcast()
	s.mu.Unlock()
	if tj != nil {
		s.opt.Jobs.Finish(tj)
	}
	if cs != nil {
		cs.write(FrameStatus, st.encode())
	}
}

// pump streams j's encoded result to whichever connection the session
// has, within the unacked window, resuming across reconnects, until the
// client has acked every byte (or the session dies / drain gives up).
func (s *Server) pump(j *wireJob) {
	total := int64(len(j.stream))
	chunkSize := int64(s.opt.ChunkBytes)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j.done || j.sess.expired || s.stopStream.Load() {
			return
		}
		if j.acked >= total {
			// Fully acked: the job is delivered.
			j.done = true
			delete(j.sess.jobs, j.id)
			cs := j.sess.cur
			tj := j.trace
			j.trace = nil
			s.mu.Unlock()
			s.cJobsDone.Add(1)
			s.hStream.Observe(time.Since(j.start))
			if tj != nil {
				s.opt.Jobs.Finish(tj)
			}
			if cs != nil {
				cs.write(FrameDone, doneMsg{Job: j.id, Trace: j.traceID, Total: total}.encode())
			}
			s.mu.Lock()
			return
		}
		cs := j.sess.cur
		if cs == nil || j.sent >= total || j.sent-j.acked >= s.opt.Window {
			// Detached, all sent, or window full: wait for an ack, a
			// reattach, or shutdown.
			s.cond.Wait()
			continue
		}
		end := j.sent + chunkSize
		if end > total {
			end = total
		}
		ch, err := sample.ChunkAt(j.stream, j.sent, int(end-j.sent))
		if err != nil {
			// Unreachable by construction; fail loudly rather than spin.
			j.failed = &statusMsg{Job: j.id, Code: StatusInternal, Msg: "chunking failed"}
			return
		}
		j.sent = end
		s.mu.Unlock()
		werr := cs.write(FrameChunk, chunkMsg{Job: j.id, Trace: j.traceID, Chunk: ch}.encode())
		s.mu.Lock()
		if werr != nil {
			// This connection is dead. Roll sent back so a resume on a
			// fresh connection re-sends from the ack, and detach it.
			if j.sess.cur == cs {
				j.sess.cur = nil
				j.sess.detachedAt = time.Now()
			}
			j.sent = j.acked
			s.mu.Unlock()
			cs.close()
			s.mu.Lock()
			continue
		}
		s.cChunks.Add(1)
		s.cChunkBytes.Add(int64(len(ch.Payload)))
		j.trace.Event(jobtrace.KindStream, -1, "", int64(len(ch.Payload)))
	}
}

func (s *Server) handleAck(sess *session, m ackMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := sess.jobs[m.Job]; j != nil && m.Offset > j.acked {
		j.acked = m.Offset
		j.trace.Event(jobtrace.KindAck, -1, "", m.Offset)
		s.cond.Broadcast()
	}
}

// handleResume answers a reconnecting client: a finished-failed job gets
// its terminal status replayed, a live job restarts streaming from the
// client's offset, an unknown job gets StatusUnknownJob (the client
// resubmits).
func (s *Server) handleResume(sess *session, cs *connState, m resumeMsg) {
	s.mu.Lock()
	j := sess.jobs[m.Job]
	if j == nil {
		s.mu.Unlock()
		cs.write(FrameStatus, statusMsg{Job: m.Job, Code: StatusUnknownJob}.encode())
		return
	}
	if st := j.failed; st != nil {
		delete(sess.jobs, m.Job) // outcome delivered; forget the job
		s.mu.Unlock()
		cs.write(FrameStatus, st.encode())
		return
	}
	if m.Offset > j.acked {
		j.acked = m.Offset
	}
	j.sent = j.acked
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Server) handleCancel(sess *session, m cancelMsg) {
	s.mu.Lock()
	j := sess.jobs[m.Job]
	s.mu.Unlock()
	if j != nil {
		j.cancel()
	}
}

// reaper expires sessions detached longer than SessionTTL, cancelling
// their jobs so pumps and engine work do not outlive any possible
// resume.
func (s *Server) reaper() {
	defer close(s.reapDone)
	period := s.opt.SessionTTL / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-tick.C:
			s.mu.Lock()
			now := time.Now()
			for token, sess := range s.sessions {
				if sess.cur != nil || now.Sub(sess.detachedAt) < s.opt.SessionTTL {
					continue
				}
				sess.expired = true
				delete(s.sessions, token)
				s.cSessExpired.Add(1)
				s.flight.Note(sess.rank, "session expired "+token)
				for _, j := range sess.jobs {
					j.cancel()
				}
			}
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}
}

// Drain gracefully stops the server: no new sessions or submits, every
// in-flight job runs to completion, completed results get DrainGrace to
// finish streaming to attached clients, then all connections close.
// The engine is left running. Safe to call more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.connWG.Wait()
		return
	}
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	s.ln.Close()
	grace := time.AfterFunc(s.opt.DrainGrace, func() {
		s.stopStream.Store(true)
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	s.jobWG.Wait()
	grace.Stop()

	close(s.reapStop)
	<-s.reapDone
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.expired = true
		if sess.cur != nil {
			sess.cur.close()
		}
		for _, j := range sess.jobs {
			j.cancel()
		}
	}
	s.sessions = make(map[string]*session)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.connWG.Wait()
}

// Close drains the server (io.Closer-shaped).
func (s *Server) Close() error {
	s.Drain()
	return nil
}
