package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/fleet"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/sample"
)

// ErrUnavailable is wrapped by client errors after the reconnect budget
// is exhausted without reaching (or re-reaching) the server.
var ErrUnavailable = errors.New("wire: server unavailable")

// ClientOptions configures a Client.
type ClientOptions struct {
	// Addr is the server address ("host:port") for the default dialer.
	Addr string
	// Dial overrides the dialer (chaos tests inject faulty conns here).
	Dial func() (net.Conn, error)

	// KeepAlive is the client's ping interval (default 2s); it proves
	// liveness to the server during long result streams.
	KeepAlive time.Duration
	// IdleTimeout is how long the connection may stay silent before it
	// is presumed half-open (default 3×KeepAlive). The server pings
	// within KeepAlive, so a healthy connection never trips it.
	IdleTimeout time.Duration
	// ProgressTimeout bounds how long a submitted job may go without
	// any job-level frame (chunk, status, done) before the client
	// reconnects and resumes — the defense against a half-open server
	// that still answers pings (default 15s).
	ProgressTimeout time.Duration

	// ReconnectBase/ReconnectMax shape the deterministic exponential
	// backoff between reconnect attempts (defaults 20ms / 1s).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// MaxReconnects bounds connection attempts per Submit before
	// ErrUnavailable (default 8).
	MaxReconnects int
	// MaxRetries bounds overload resubmits per Submit, each honoring
	// the server's RetryAfter hint (default 4). 0 disables retry;
	// negative means "surface the first overload immediately".
	MaxRetries int

	// Trace receives the client's wire.client.* metrics; nil creates a
	// private trace.
	Trace *obs.Trace
}

func (o *ClientOptions) defaults() {
	if o.Dial == nil {
		addr := o.Addr
		o.Dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }
	}
	if o.KeepAlive <= 0 {
		o.KeepAlive = 2 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 3 * o.KeepAlive
	}
	if o.ProgressTimeout <= 0 {
		o.ProgressTimeout = 15 * time.Second
	}
	if o.ReconnectBase <= 0 {
		o.ReconnectBase = 20 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = time.Second
	}
	if o.MaxReconnects == 0 {
		o.MaxReconnects = 8
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
}

// Client is a wire-protocol client. One Client carries one session and
// runs one job at a time (Submit serializes); run several Clients for
// concurrency. A Client survives connection loss: Submit transparently
// reconnects with backoff and resumes result streaming from the last
// acked chunk.
type Client struct {
	opt ClientOptions
	tr  *obs.Trace

	mu sync.Mutex // serializes Submit

	cmu     sync.Mutex // guards conn identity (interrupt races Submit)
	conn    net.Conn
	wmu     sync.Mutex // guards frame writes (Submit vs pinger)
	pingEnd chan struct{}
	token   string

	nextJob uint64

	// lastTrace is the server-minted TraceID echoed on the most recent
	// job-scoped frame (chunk, done, status). It names this client's
	// current job in the server's jobtrace collector — correlate wire
	// activity with the server-side lifecycle timeline via /jobs/{id}.
	// Zero until the first echo (or when server tracing is off). Stable
	// across reconnects of the same job: the server keeps the timeline
	// on the session, so a resumed stream echoes the same id.
	lastTrace atomic.Uint64

	cReconnects, cResumes, cRetries  *obs.Counter
	cRestarts, cJobs, cFramesCorrupt *obs.Counter

	// The client-side share of a Submit: hAssemble times each chunk's CRC
	// check and append, hDecode the decode and octree validation of the
	// assembled stream.
	hAssemble, hDecode *obs.Histogram
}

// LastTraceID reports the server-side TraceID of the most recently
// observed job (0 before any job frame arrives, or when the server runs
// without a jobtrace collector).
func (c *Client) LastTraceID() uint64 { return c.lastTrace.Load() }

// NewClient builds a client; no connection is made until the first
// Submit.
func NewClient(opts ClientOptions) *Client {
	opts.defaults()
	c := &Client{opt: opts, tr: opts.Trace, nextJob: 1}
	if c.tr == nil {
		c.tr = obs.New()
	}
	c.cReconnects = c.tr.Counter("wire.client.reconnects")
	c.cResumes = c.tr.Counter("wire.client.resumes")
	c.cRetries = c.tr.Counter("wire.client.retries")
	c.cRestarts = c.tr.Counter("wire.client.restarts")
	c.cJobs = c.tr.Counter("wire.client.jobs_completed")
	c.cFramesCorrupt = c.tr.Counter("wire.client.frames_corrupt")
	c.hAssemble = c.tr.Histogram("wire.client.assemble_seconds")
	c.hDecode = c.tr.Histogram("wire.client.decode_seconds")
	return c
}

// Trace returns the client's metrics trace.
func (c *Client) Trace() *obs.Trace { return c.tr }

// Close drops the connection (the server keeps the session for its TTL).
func (c *Client) Close() error {
	c.closeConn()
	return nil
}

func (c *Client) closeConn() {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	if c.pingEnd != nil {
		close(c.pingEnd)
		c.pingEnd = nil
	}
}

// interrupt forces any blocked read on the current connection to return
// immediately (context cancellation path).
func (c *Client) interrupt() {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.conn != nil {
		c.conn.SetReadDeadline(time.Unix(1, 0))
	}
}

// write sends one frame under the write mutex and deadline.
func (c *Client) write(conn net.Conn, t FrameType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(c.opt.IdleTimeout))
	_, err := conn.Write(EncodeFrame(t, payload))
	return err
}

// connect dials, handshakes, and starts the keepalive pinger. It
// reports whether the server resumed the client's previous session.
func (c *Client) connect(ctx context.Context) (net.Conn, bool, error) {
	conn, err := c.opt.Dial()
	if err != nil {
		return nil, false, err
	}
	conn.SetWriteDeadline(time.Now().Add(c.opt.IdleTimeout))
	if _, err := conn.Write(EncodeFrame(FrameHello, helloMsg{Version: ProtoVersion, Token: c.token}.encode())); err != nil {
		conn.Close()
		return nil, false, err
	}
	conn.SetReadDeadline(readDeadline(ctx, c.opt.IdleTimeout))
	t, p, err := ReadFrame(conn)
	if err != nil || t != FrameWelcome {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("wire: handshake answered with %v", t)
		}
		return nil, false, err
	}
	w, err := decodeWelcome(p)
	if err != nil {
		conn.Close()
		return nil, false, err
	}
	resumed := w.Resumed && w.Token == c.token
	c.token = w.Token

	end := make(chan struct{})
	c.cmu.Lock()
	c.conn = conn
	c.pingEnd = end
	c.cmu.Unlock()
	go c.pinger(conn, end)
	return conn, resumed, nil
}

func (c *Client) pinger(conn net.Conn, end <-chan struct{}) {
	tick := time.NewTicker(c.opt.KeepAlive)
	defer tick.Stop()
	for {
		select {
		case <-end:
			return
		case <-tick.C:
			if c.write(conn, FramePing, nil) != nil {
				return
			}
		}
	}
}

// readDeadline picks the earlier of the idle horizon and the context
// deadline (plus a little slack so ctx.Err is the one that reports).
func readDeadline(ctx context.Context, idle time.Duration) time.Time {
	d := time.Now().Add(idle)
	if cd, ok := ctx.Deadline(); ok && cd.Add(50*time.Millisecond).Before(d) {
		d = cd.Add(50 * time.Millisecond)
	}
	return d
}

// Submit runs one convolution job over the wire and returns the decoded
// compressed result. It blocks until the result is fully streamed, the
// server reports a terminal status (typed *StatusError, unwrapping to
// the engine sentinels), ctx ends (the job is cancelled server-side), or
// the reconnect/retry budgets run out (error wrapping ErrUnavailable).
// Overload rejections are retried MaxRetries times honoring the server's
// RetryAfter hint; lost connections are redialed with exponential
// backoff and the result stream resumes from the last acked chunk.
func (c *Client) Submit(ctx context.Context, tenant string, box grid.Box, input *grid.Field) (*sample.Compressed, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	s := box.Size()
	if s[0] < 1 || s[0] != s[1] || s[1] != s[2] {
		return nil, fmt.Errorf("wire: box %v must be a cube", box)
	}
	if input == nil || input.Dim != grid.Cube(s[0]) || len(input.Data) != s[0]*s[0]*s[0] {
		return nil, fmt.Errorf("wire: input does not match box %v", box)
	}

	stop := context.AfterFunc(ctx, c.interrupt)
	defer stop()

	asm := sample.NewAssembler()
	jobID := c.nextJob
	c.nextJob++
	submitted := false // the current server session has this job
	reconnects := 0
	retries := 0
	backoff := c.opt.ReconnectBase

	// lost marks the connection dead and pays one unit of the reconnect
	// budget (sleeping the current backoff), or returns the terminal
	// error once the budget is gone.
	lost := func(err error) error {
		if errors.Is(err, ErrFrameCorrupt) {
			c.cFramesCorrupt.Add(1)
		}
		c.closeConn()
		reconnects++
		if reconnects > c.opt.MaxReconnects {
			return fmt.Errorf("%w after %d attempts: %v", ErrUnavailable, reconnects-1, err)
		}
		if err := sleepCtx(ctx, backoff); err != nil {
			return err
		}
		backoff *= 2
		if backoff > c.opt.ReconnectMax {
			backoff = c.opt.ReconnectMax
		}
		return nil
	}

	for {
		if err := ctx.Err(); err != nil {
			c.sendCancel(jobID)
			return nil, err
		}

		// Ensure a live, handshaken connection.
		c.cmu.Lock()
		conn := c.conn
		c.cmu.Unlock()
		if conn == nil {
			var resumed bool
			var err error
			conn, resumed, err = c.connect(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				if err := lost(err); err != nil {
					return nil, err
				}
				continue
			}
			if reconnects > 0 {
				c.cReconnects.Add(1)
			}
			if submitted && !resumed {
				// The server lost our session: start the job over under a
				// fresh id, from byte zero.
				asm.Reset()
				submitted = false
				jobID = c.nextJob
				c.nextJob++
				c.cRestarts.Add(1)
			}
		}

		var err error
		if !submitted {
			err = c.write(conn, FrameSubmit, submitMsg{
				Job: jobID, Deadline: deadlineIn(ctx), Tenant: tenant,
				Lo: box.Lo, K: s[0], Data: input.Data,
			}.encode())
			if err == nil {
				submitted = true
			}
		} else {
			err = c.write(conn, FrameResume, resumeMsg{Job: jobID, Offset: asm.Offset()}.encode())
			if err == nil {
				c.cResumes.Add(1)
			}
		}
		if err != nil {
			if err := lost(err); err != nil {
				return nil, err
			}
			continue
		}

		res, overload, err := c.readResult(ctx, conn, jobID, asm)
		switch {
		case overload != nil:
			// Typed admission rejection: honor the server's RetryAfter
			// hint while budget remains, then resubmit under a fresh id.
			retries++
			if retries > c.opt.MaxRetries {
				return nil, &StatusError{Code: overload.Code, RetryAfter: overload.RetryAfter, Msg: overload.Msg}
			}
			c.cRetries.Add(1)
			wait := overload.RetryAfter
			if wait <= 0 {
				wait = backoff
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return nil, err
			}
			asm.Reset()
			submitted = false
			jobID = c.nextJob
			c.nextJob++
		case err == nil && res != nil:
			c.cJobs.Add(1)
			return res, nil
		case err == nil:
			// Unknown job after a resume: the submit never reached the
			// server. Resubmit from scratch under a fresh id.
			asm.Reset()
			submitted = false
			jobID = c.nextJob
			c.nextJob++
		case errors.As(err, new(*StatusError)), errors.Is(err, context.Canceled),
			errors.Is(err, context.DeadlineExceeded):
			return nil, err
		default:
			if err := lost(err); err != nil {
				return nil, err
			}
		}
	}
}

// readResult drives one attached attempt: it consumes frames until the
// job completes (decoded result), is rejected for overload (the status
// comes back for Submit's retry loop), terminally fails (typed error),
// should be resubmitted (nil, nil, nil — the server does not know the
// job), or the connection dies (transport error for the caller's
// reconnect path).
func (c *Client) readResult(ctx context.Context, conn net.Conn, jobID uint64, asm *sample.Assembler) (*sample.Compressed, *statusMsg, error) {
	lastProgress := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			c.sendCancel(jobID)
			return nil, nil, err
		}
		dl := readDeadline(ctx, c.opt.IdleTimeout)
		if pd := lastProgress.Add(c.opt.ProgressTimeout); pd.Before(dl) {
			dl = pd
		}
		conn.SetReadDeadline(dl)
		t, p, err := ReadFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				c.sendCancel(jobID)
				return nil, nil, ctx.Err()
			}
			return nil, nil, err // timeout (idle or stalled progress), EOF, corruption
		}
		switch t {
		case FramePing:
			if err := c.write(conn, FramePong, nil); err != nil {
				return nil, nil, err
			}
		case FramePong:
			// Keepalive answer; nothing to do.
		case FrameChunk:
			m, err := decodeChunk(p)
			if err != nil {
				return nil, nil, err
			}
			if m.Job != jobID {
				continue // stale stream from an abandoned job
			}
			if m.Trace != 0 {
				c.lastTrace.Store(m.Trace)
			}
			t0 := time.Now()
			err = asm.Add(m.Chunk)
			c.hAssemble.Observe(time.Since(t0))
			if err != nil {
				// Gap or CRC failure: the stream state is unusable on this
				// connection; resume from the last good offset.
				return nil, nil, fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
			}
			lastProgress = time.Now()
			if err := c.write(conn, FrameAck, ackMsg{Job: jobID, Offset: asm.Offset()}.encode()); err != nil {
				return nil, nil, err
			}
			if asm.Complete() {
				return c.decode(asm)
			}
		case FrameDone:
			m, err := decodeDone(p)
			if err != nil || m.Job != jobID {
				continue
			}
			if m.Trace != 0 {
				c.lastTrace.Store(m.Trace)
			}
			if !asm.Complete() {
				return nil, nil, fmt.Errorf("%w: done at %d of %d bytes", ErrFrameCorrupt, asm.Offset(), m.Total)
			}
			return c.decode(asm)
		case FrameStatus:
			m, err := decodeStatus(p)
			if err != nil {
				return nil, nil, err
			}
			if m.Job != 0 && m.Job != jobID {
				continue // stale job's terminal status
			}
			if m.Job == jobID && m.Trace != 0 {
				c.lastTrace.Store(m.Trace)
			}
			switch {
			case m.Code.Retryable():
				return nil, &m, nil
			case m.Code == StatusUnknownJob:
				return nil, nil, nil // resubmit from scratch
			default:
				return nil, nil, &StatusError{Code: m.Code, RetryAfter: m.RetryAfter, Msg: m.Msg}
			}
		default:
			return nil, nil, fmt.Errorf("%w: unexpected %v frame", ErrFrameCorrupt, t)
		}
	}
}

// decode turns the fully assembled stream into readResult's completed-job
// return, timing it.
func (c *Client) decode(asm *sample.Assembler) (*sample.Compressed, *statusMsg, error) {
	t0 := time.Now()
	res, err := asm.Compressed()
	c.hDecode.Observe(time.Since(t0))
	return res, nil, err
}

// FleetStatus asks the server for its engine's per-device fleet status:
// one row per admission device (empty when the server runs without a
// configured fleet). It shares Submit's session and serializes with it;
// a dead connection is redialed once before the transport error
// surfaces.
func (c *Client) FleetStatus(ctx context.Context) ([]fleet.DeviceStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	stop := context.AfterFunc(ctx, c.interrupt)
	defer stop()

	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.cmu.Lock()
		conn := c.conn
		c.cmu.Unlock()
		if conn == nil {
			var err error
			if conn, _, err = c.connect(ctx); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
			}
		}
		rows, err := c.queryFleet(ctx, conn)
		if err == nil {
			return rows, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.closeConn()
		if attempt > 0 {
			return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
	}
}

// queryFleet sends one fleet query on conn and reads frames until the
// answer (tolerating keepalives and stale job frames from an abandoned
// Submit).
func (c *Client) queryFleet(ctx context.Context, conn net.Conn) ([]fleet.DeviceStatus, error) {
	if err := c.write(conn, FrameFleetQuery, nil); err != nil {
		return nil, err
	}
	for {
		conn.SetReadDeadline(readDeadline(ctx, c.opt.IdleTimeout))
		t, p, err := ReadFrame(conn)
		if err != nil {
			return nil, err
		}
		switch t {
		case FrameFleetStatus:
			m, err := decodeFleetStatus(p)
			if err != nil {
				return nil, err
			}
			return m.Rows, nil
		case FramePing:
			if err := c.write(conn, FramePong, nil); err != nil {
				return nil, err
			}
		case FramePong, FrameChunk, FrameDone, FrameStatus:
			// Keepalives and stale frames from abandoned jobs.
		default:
			return nil, fmt.Errorf("%w: unexpected %v frame", ErrFrameCorrupt, t)
		}
	}
}

// SetTenantWeight sets a tenant's weighted-fair dispatch weight on the
// server at runtime and returns the applied (possibly clamped) weight.
// It shares Submit's session and serializes with it; a dead connection
// is redialed once before the transport error surfaces.
func (c *Client) SetTenantWeight(ctx context.Context, tenant string, weight int) (int, error) {
	if tenant == "" || len(tenant) > maxWireString {
		return 0, fmt.Errorf("wire: tenant %q not sendable", tenant)
	}
	if weight < 1 || weight > maxWireTenantWeight {
		return 0, fmt.Errorf("wire: weight %d out of range [1, %d]", weight, maxWireTenantWeight)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	stop := context.AfterFunc(ctx, c.interrupt)
	defer stop()

	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		c.cmu.Lock()
		conn := c.conn
		c.cmu.Unlock()
		if conn == nil {
			var err error
			if conn, _, err = c.connect(ctx); err != nil {
				return 0, fmt.Errorf("%w: %v", ErrUnavailable, err)
			}
		}
		applied, err := c.sendWeightUpdate(ctx, conn, tenant, weight)
		if err == nil {
			return applied, nil
		}
		var se *StatusError
		if errors.As(err, &se) {
			return 0, err // the server refused the update; redialing won't help
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		c.closeConn()
		if attempt > 0 {
			return 0, fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
	}
}

// sendWeightUpdate sends one weight update on conn and reads frames
// until the server's echo (tolerating keepalives and stale job frames
// from an abandoned Submit).
func (c *Client) sendWeightUpdate(ctx context.Context, conn net.Conn, tenant string, weight int) (int, error) {
	if err := c.write(conn, FrameWeightUpdate, (weightUpdateMsg{Tenant: tenant, Weight: uint32(weight)}).encode()); err != nil {
		return 0, err
	}
	for {
		conn.SetReadDeadline(readDeadline(ctx, c.opt.IdleTimeout))
		t, p, err := ReadFrame(conn)
		if err != nil {
			return 0, err
		}
		switch t {
		case FrameWeightUpdate:
			m, err := decodeWeightUpdate(p)
			if err != nil {
				return 0, err
			}
			return int(m.Weight), nil
		case FrameStatus:
			m, err := decodeStatus(p)
			if err != nil {
				return 0, err
			}
			if m.Job == 0 {
				return 0, &StatusError{Code: m.Code, Msg: m.Msg, RetryAfter: m.RetryAfter}
			}
			// Stale job-scoped status from an abandoned Submit.
		case FramePing:
			if err := c.write(conn, FramePong, nil); err != nil {
				return 0, err
			}
		case FramePong, FrameChunk, FrameDone:
			// Keepalives and stale frames from abandoned jobs.
		default:
			return 0, fmt.Errorf("%w: unexpected %v frame", ErrFrameCorrupt, t)
		}
	}
}

// sendCancel best-effort cancels the job server-side.
func (c *Client) sendCancel(jobID uint64) {
	c.cmu.Lock()
	conn := c.conn
	c.cmu.Unlock()
	if conn != nil {
		c.write(conn, FrameCancel, cancelMsg{Job: jobID}.encode())
	}
}

// deadlineIn converts the context deadline to a relative job deadline.
func deadlineIn(ctx context.Context) time.Duration {
	if d, ok := ctx.Deadline(); ok {
		if r := time.Until(d); r > 0 {
			return r
		}
		return time.Millisecond
	}
	return 0
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
