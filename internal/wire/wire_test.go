package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/serve"
)

// Test timing: aggressive keepalives and deadlines so half-open and
// reconnect paths resolve in milliseconds, and a chunk size small enough
// that every result streams as several frames.
const (
	testKeepAlive = 20 * time.Millisecond
	testIdle      = 100 * time.Millisecond
	testProgress  = 250 * time.Millisecond
	testChunk     = 256
)

func testField(k int, seed int64) *grid.Field {
	f := grid.NewField(grid.Cube(k))
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func testEngine(t *testing.T, opts serve.Options) *serve.Engine {
	t.Helper()
	if opts.Dim.Len() == 0 {
		opts.Dim = grid.Cube(16)
	}
	if opts.Kernel == nil {
		opts.Kernel = green.Gaussian{Sigma: 1.5}
	}
	if opts.FarRate == 0 {
		opts.FarRate = 8
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	e, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Drain)
	return e
}

func testServer(t *testing.T, eng *serve.Engine, opts ServerOptions) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if opts.KeepAlive == 0 {
		opts.KeepAlive = testKeepAlive
	}
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = testIdle
	}
	if opts.SessionTTL == 0 {
		opts.SessionTTL = 2 * time.Second
	}
	if opts.ChunkBytes == 0 {
		opts.ChunkBytes = testChunk
	}
	s := NewServer(eng, ln, opts)
	t.Cleanup(s.Drain)
	return s
}

func testClientOptions(addr string) ClientOptions {
	return ClientOptions{
		Addr:            addr,
		KeepAlive:       testKeepAlive,
		IdleTimeout:     testIdle,
		ProgressTimeout: testProgress,
		ReconnectBase:   5 * time.Millisecond,
		ReconnectMax:    50 * time.Millisecond,
	}
}

// waitCounter polls a trace counter until it reaches want; streaming-side
// counters land asynchronously after the client's final ack.
func waitCounter(t *testing.T, get func() int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := get(); n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkGoroutines fails the test if the goroutine count has not settled
// back to (near) the baseline once servers and clients are torn down.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	var after int
	for {
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
}

// directResult computes the same job through the engine without the wire,
// as the correctness baseline.
func directResult(t *testing.T, eng *serve.Engine, tenant string, box grid.Box, in *grid.Field) []float64 {
	t.Helper()
	res, err := eng.Submit(context.Background(), tenant, box, in)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	return append([]float64(nil), res.Output.Samples...)
}

func sameSamples(t *testing.T, got *sample.Compressed, want []float64) {
	t.Helper()
	if got == nil {
		t.Fatal("nil result")
	}
	if len(got.Samples) != len(want) {
		t.Fatalf("wire returned %d samples, direct %d", len(got.Samples), len(want))
	}
	for i := range want {
		if got.Samples[i] != want[i] {
			t.Fatalf("sample %d: wire %g, direct %g", i, got.Samples[i], want[i])
		}
	}
}

// TestWireRoundTrip pins the protocol's correctness contract: a job
// submitted over the wire returns byte-identical samples to the same job
// submitted to the engine directly, across multiple sequential jobs on
// one session (each result streaming as several chunks).
func TestWireRoundTrip(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	before := runtime.NumGoroutine() // engine workers are part of the baseline
	srv := testServer(t, eng, ServerOptions{})
	c := NewClient(testClientOptions(srv.Addr().String()))
	defer c.Close()

	for i := 0; i < 3; i++ {
		box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
		in := testField(4, int64(i))
		want := directResult(t, eng, "t", box, in)
		got, err := c.Submit(context.Background(), "t", box, in)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		sameSamples(t, got, want)
	}
	waitCounter(t, func() int64 { return srv.Trace().CounterValue("wire.jobs_completed") }, 3, "wire.jobs_completed")
	chunks := srv.Trace().CounterValue("wire.chunks_sent")
	if chunks < 3 {
		t.Fatalf("wire.chunks_sent = %d, want multi-chunk streams", chunks)
	}
	// The client-side share of each Submit is on the client's trace: one
	// decode per job, one assemble per chunk received.
	if n := c.Trace().Histogram("wire.client.decode_seconds").Snapshot("").Count; n != 3 {
		t.Errorf("wire.client.decode_seconds count = %d, want 3", n)
	}
	if n := c.Trace().Histogram("wire.client.assemble_seconds").Snapshot("").Count; n != chunks {
		t.Errorf("wire.client.assemble_seconds count = %d, want %d chunks", n, chunks)
	}
	c.Close()
	srv.Drain()
	checkGoroutines(t, before)
}

// TestWireOverloadMemoryStatus pins the admission-rejection contract: a
// device too small for any job surfaces across the wire as a typed
// StatusError that still satisfies errors.Is for the engine sentinels.
func TestWireOverloadMemoryStatus(t *testing.T) {
	tiny := &gpu.Device{Name: "tiny", Capacity: 1024}
	eng := testEngine(t, serve.Options{Workers: 1, Device: tiny})
	srv := testServer(t, eng, ServerOptions{})
	opts := testClientOptions(srv.Addr().String())
	opts.MaxRetries = -1 // surface the first overload, no retry
	c := NewClient(opts)
	defer c.Close()

	_, err := c.Submit(context.Background(), "t", grid.CubeAt(grid.Point{0, 0, 0}, 8), testField(8, 1))
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StatusError", err)
	}
	if se.Code != StatusOverloadedMemory {
		t.Fatalf("code = %v, want %v", se.Code, StatusOverloadedMemory)
	}
	if !errors.Is(err, serve.ErrOverloaded) || !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("err = %v, want Is(serve.ErrOverloaded) and Is(gpu.ErrOutOfMemory)", err)
	}
	if n := srv.Trace().CounterValue("wire.jobs_rejected"); n != 1 {
		t.Fatalf("wire.jobs_rejected = %d, want 1", n)
	}
}

// TestWireOverloadRetrySucceeds pins the retry loop: with retry budget,
// an overloaded submit eventually lands once capacity frees up.
func TestWireOverloadRetrySucceeds(t *testing.T) {
	eng := testEngine(t, serve.Options{Workers: 1, QueueDepth: 1})
	srv := testServer(t, eng, ServerOptions{})

	// Saturate the queue from a second client so some submits bounce.
	bg := NewClient(testClientOptions(srv.Addr().String()))
	defer bg.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			bg.Submit(context.Background(), "bg", grid.CubeAt(grid.Point{0, 0, 0}, 8), testField(8, int64(i)))
		}
	}()

	opts := testClientOptions(srv.Addr().String())
	opts.MaxRetries = 32
	c := NewClient(opts)
	defer c.Close()
	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	in := testField(4, 9)
	want := directResult(t, eng, "t", box, in)
	for i := 0; i < 3; i++ {
		got, err := c.Submit(context.Background(), "t", box, in)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		sameSamples(t, got, want)
	}
	<-done
}

func TestStatusOfMapping(t *testing.T) {
	cases := []struct {
		err   error
		code  Status
		after time.Duration
	}{
		{&serve.OverloadError{Reason: "queue full", RetryAfter: 7 * time.Millisecond}, StatusOverloadedQueue, 7 * time.Millisecond},
		{&serve.OverloadError{Reason: "memory", RetryAfter: 3 * time.Millisecond, Cause: gpu.ErrOutOfMemory}, StatusOverloadedMemory, 3 * time.Millisecond},
		{serve.ErrClosed, StatusClosing, 0},
		{context.Canceled, StatusCancelled, 0},
		{context.DeadlineExceeded, StatusDeadline, 0},
		{errors.New("boom"), StatusInternal, 0},
	}
	for _, tc := range cases {
		code, after := statusOf(tc.err)
		if code != tc.code || after != tc.after {
			t.Errorf("statusOf(%v) = (%v, %v), want (%v, %v)", tc.err, code, after, tc.code, tc.after)
		}
	}
}

func TestStatusErrorUnwrap(t *testing.T) {
	cases := []struct {
		code Status
		is   []error
	}{
		{StatusOverloadedQueue, []error{serve.ErrOverloaded}},
		{StatusOverloadedMemory, []error{serve.ErrOverloaded, gpu.ErrOutOfMemory}},
		{StatusClosing, []error{serve.ErrClosed}},
		{StatusCancelled, []error{context.Canceled}},
		{StatusDeadline, []error{context.DeadlineExceeded}},
	}
	for _, tc := range cases {
		err := error(&StatusError{Code: tc.code})
		for _, want := range tc.is {
			if !errors.Is(err, want) {
				t.Errorf("StatusError{%v}: errors.Is(%v) = false", tc.code, want)
			}
		}
	}
	if err := (&StatusError{Code: StatusInternal}); errors.Is(err, serve.ErrOverloaded) {
		t.Error("StatusInternal must not unwrap to ErrOverloaded")
	}
	if got := (&StatusError{Code: StatusOverloadedQueue, RetryAfter: time.Second, Msg: "q"}).Error(); !strings.Contains(got, "overloaded-queue") || !strings.Contains(got, "retry after") {
		t.Errorf("Error() = %q", got)
	}
}

// TestWireReconnectResume kills the connection mid-stream and checks the
// client transparently reconnects, resumes from its ack offset, and still
// assembles a byte-identical result.
func TestWireReconnectResume(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	before := runtime.NumGoroutine()
	srv := testServer(t, eng, ServerOptions{ChunkBytes: 64, Window: 128})

	opts := testClientOptions(srv.Addr().String())
	dials := 0
	opts.Dial = func() (net.Conn, error) {
		dials++
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil || dials > 1 {
			return conn, err
		}
		// First connection dies at its 4th write (hello, submit, then two
		// acks in): mid-stream, with bytes already assembled.
		return cluster.NewChaosConn(conn, cluster.FaultPlan{Seed: 1},
			cluster.ConnFaultPoint{Write: 4, Kind: cluster.ConnClose}), nil
	}
	c := NewClient(opts)
	defer c.Close()

	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	in := testField(4, 5)
	want := directResult(t, eng, "t", box, in)
	got, err := c.Submit(context.Background(), "t", box, in)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, got, want)
	if dials < 2 {
		t.Fatalf("dials = %d, want a reconnect", dials)
	}
	if n := srv.Trace().CounterValue("wire.sessions_resumed"); n < 1 {
		t.Fatalf("wire.sessions_resumed = %d, want >= 1", n)
	}
	if n := c.Trace().CounterValue("wire.client.reconnects"); n < 1 {
		t.Fatalf("wire.client.reconnects = %d, want >= 1", n)
	}
	c.Close()
	srv.Drain()
	checkGoroutines(t, before)
}

// TestWireRestartAfterSessionLoss expires the session server-side while
// the client is disconnected; the client must detect the unresumed
// session and restart the job from scratch, still returning the right
// result.
func TestWireRestartAfterSessionLoss(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	srv := testServer(t, eng, ServerOptions{SessionTTL: 30 * time.Millisecond})

	opts := testClientOptions(srv.Addr().String())
	dials := 0
	opts.Dial = func() (net.Conn, error) {
		dials++
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil || dials > 1 {
			return conn, err
		}
		// Kill the first connection at its 3rd write — after the submit
		// landed, on the first ack/pong — then stall the client past the
		// session TTL so the server forgets the session.
		return cluster.NewChaosConn(conn, cluster.FaultPlan{Seed: 1},
			cluster.ConnFaultPoint{Write: 3, Kind: cluster.ConnClose}), nil
	}
	opts.ReconnectBase = 100 * time.Millisecond // > SessionTTL: session expires meanwhile
	c := NewClient(opts)
	defer c.Close()

	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	in := testField(4, 7)
	want := directResult(t, eng, "t", box, in)
	got, err := c.Submit(context.Background(), "t", box, in)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, got, want)
	if n := c.Trace().CounterValue("wire.client.restarts"); n < 1 {
		t.Fatalf("wire.client.restarts = %d, want >= 1 (session was lost)", n)
	}
	if n := srv.Trace().CounterValue("wire.sessions_expired"); n < 1 {
		t.Fatalf("wire.sessions_expired = %d, want >= 1", n)
	}
}

// TestWireCancelPrompt pins client-side cancellation latency: with a
// half-open connection (submit silently dropped) and timeouts far longer
// than the test, cancelling the context must still return immediately via
// the read-interrupt path.
func TestWireCancelPrompt(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	srv := testServer(t, eng, ServerOptions{})

	opts := testClientOptions(srv.Addr().String())
	opts.IdleTimeout = 30 * time.Second
	opts.ProgressTimeout = 30 * time.Second
	opts.KeepAlive = 10 * time.Second
	opts.Dial = func() (net.Conn, error) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			return nil, err
		}
		// Everything after the hello vanishes: the classic half-open peer.
		return cluster.NewChaosConn(conn, cluster.FaultPlan{Seed: 1},
			cluster.ConnFaultPoint{Write: 2, Kind: cluster.ConnDrop}), nil
	}
	c := NewClient(opts)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := c.Submit(ctx, "t", grid.CubeAt(grid.Point{4, 4, 4}, 4), testField(4, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancel took %v; the blocked read was not interrupted", d)
	}
}

// TestWireDeadline pins the deadline path the same way.
func TestWireDeadline(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	srv := testServer(t, eng, ServerOptions{})

	opts := testClientOptions(srv.Addr().String())
	opts.Dial = func() (net.Conn, error) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			return nil, err
		}
		return cluster.NewChaosConn(conn, cluster.FaultPlan{Seed: 1},
			cluster.ConnFaultPoint{Write: 2, Kind: cluster.ConnDrop}), nil
	}
	opts.MaxReconnects = 1000 // deadline, not the reconnect budget, must end it
	c := NewClient(opts)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	_, err := c.Submit(ctx, "t", grid.CubeAt(grid.Point{4, 4, 4}, 4), testField(4, 1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWireDrainFinishesInFlight submits a job, waits until the server
// has accepted it, then drains concurrently: the job must still complete
// and stream fully (engine work is never abandoned by Drain).
func TestWireDrainFinishesInFlight(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	srv := testServer(t, eng, ServerOptions{DrainGrace: 2 * time.Second})
	c := NewClient(testClientOptions(srv.Addr().String()))
	defer c.Close()

	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	in := testField(4, 11)
	want := directResult(t, eng, "t", box, in)

	type out struct {
		res *sample.Compressed
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := c.Submit(context.Background(), "t", box, in)
		ch <- out{res, err}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Trace().CounterValue("wire.jobs_submitted") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Drain()
	o := <-ch
	if o.err != nil {
		t.Fatalf("in-flight job failed across drain: %v", o.err)
	}
	sameSamples(t, o.res, want)
}

// TestWireDrainedServerUnavailable pins the post-drain contract: submits
// against a drained server exhaust the reconnect budget and wrap
// ErrUnavailable.
func TestWireDrainedServerUnavailable(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	srv := testServer(t, eng, ServerOptions{})
	srv.Drain()

	opts := testClientOptions(srv.Addr().String())
	opts.MaxReconnects = 2
	c := NewClient(opts)
	defer c.Close()
	_, err := c.Submit(context.Background(), "t", grid.CubeAt(grid.Point{4, 4, 4}, 4), testField(4, 1))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

// rawSession dials and handshakes by hand, for protocol-violation tests.
func rawSession(t *testing.T, addr string, hello helloMsg) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(EncodeFrame(FrameHello, hello.encode())); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestWireRejectsBadVersion(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	srv := testServer(t, eng, ServerOptions{})
	conn := rawSession(t, srv.Addr().String(), helloMsg{Version: 99})
	conn.SetReadDeadline(time.Now().Add(time.Second))
	ft, p, err := ReadFrame(conn)
	if err != nil || ft != FrameStatus {
		t.Fatalf("frame = %v, %v; want status", ft, err)
	}
	m, err := decodeStatus(p)
	if err != nil || m.Code != StatusBadRequest {
		t.Fatalf("status = %+v, %v; want bad-request", m, err)
	}
}

func TestWireResumeUnknownJob(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	srv := testServer(t, eng, ServerOptions{})
	conn := rawSession(t, srv.Addr().String(), helloMsg{Version: ProtoVersion})
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if ft, _, err := ReadFrame(conn); err != nil || ft != FrameWelcome {
		t.Fatalf("handshake = %v, %v", ft, err)
	}
	if _, err := conn.Write(EncodeFrame(FrameResume, resumeMsg{Job: 42}.encode())); err != nil {
		t.Fatal(err)
	}
	for {
		conn.SetReadDeadline(time.Now().Add(time.Second))
		ft, p, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if ft == FramePing {
			conn.Write(EncodeFrame(FramePong, nil))
			continue
		}
		m, derr := decodeStatus(p)
		if ft != FrameStatus || derr != nil || m.Code != StatusUnknownJob || m.Job != 42 {
			t.Fatalf("frame = %v %+v (%v, %v), want unknown-job for 42", ft, m, err, derr)
		}
		return
	}
}

// TestReadFrameHostileHeaders pins the decoder's hardening: hostile or
// damaged headers fail typed and early, and a forged length never sizes
// an allocation the stream cannot back.
func TestReadFrameHostileHeaders(t *testing.T) {
	good := EncodeFrame(FramePing, []byte("abc"))

	flip := func(off int) []byte {
		b := bytes.Clone(good)
		b[off] ^= 1
		return b
	}
	cases := map[string][]byte{
		"bad magic":       flip(0),
		"bad type":        flip(4),
		"bad version":     flip(5),
		"reserved bits":   flip(6),
		"bad length":      flip(8),
		"bad payload crc": flip(12),
		"bad header crc":  flip(16),
		"payload flipped": flip(HeaderSize + 1),
	}
	for name, b := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrFrameCorrupt) {
			// A flipped byte in the CRC-protected region must always be
			// caught by one of the two CRCs.
			t.Errorf("%s: err = %v, want ErrFrameCorrupt", name, err)
		}
	}

	// A type past FrameResume with valid CRCs is refused like any unknown
	// type; 12–14 numbered the fleet-query, fleet-status and weight-update
	// frames this protocol no longer has.
	for _, ft := range []FrameType{FrameResume + 1, FrameResume + 2, FrameResume + 3, 255} {
		b := EncodeFrame(FramePing, nil)
		b[4] = byte(ft)
		fixCRC(b)
		if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("frame type %d: err = %v, want ErrFrameCorrupt", ft, err)
		}
	}

	// Over-limit length with a valid header CRC: rejected before any read.
	huge := EncodeFrame(FramePing, nil)
	huge[8], huge[9], huge[10], huge[11] = 0xff, 0xff, 0xff, 0x7f
	fixCRC(huge)
	if _, _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("huge length: err = %v, want ErrFrameCorrupt", err)
	}

	// In-limit forged length against a truncated stream: the decoder must
	// fail with a read error without having allocated the full claim.
	forged := EncodeFrame(FramePing, nil)
	forged[8], forged[9], forged[10] = 0x00, 0x00, 0xf0 // claim ~15.7 MiB
	fixCRC(forged)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if err == nil || errors.Is(err, io.EOF) && err == io.EOF {
		t.Fatalf("forged length: err = %v, want payload read failure", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<20 {
		t.Errorf("forged 15.7 MiB length allocated %d bytes; decoder must not allocate ahead of received bytes", grown)
	}

	// Truncated header: io.ErrUnexpectedEOF-shaped, not a panic.
	if _, _, err := ReadFrame(bytes.NewReader(good[:7])); err == nil {
		t.Error("truncated header: want error")
	}
	// Empty stream: clean io.EOF for the session loop.
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

// countingReader counts Read calls and hands out at most limit bytes per
// call (0: no limit).
type countingReader struct {
	r     io.Reader
	limit int
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	if c.limit > 0 && len(p) > c.limit {
		p = p[:c.limit]
	}
	return c.r.Read(p)
}

// TestReadFrameReadsIntoPayload pins the payload read path: a payload of
// several frameReadChunk steps arrives intact however the reader fragments
// it, is read straight into the growing payload slice (a handful of Read
// calls, not one per 4 KB), and a mid-payload EOF is a read error.
func TestReadFrameReadsIntoPayload(t *testing.T) {
	payload := make([]byte, 3*frameReadChunk+frameReadChunk/2)
	rand.New(rand.NewSource(3)).Read(payload)
	frame := EncodeFrame(FrameChunk, payload)

	whole := &countingReader{r: bytes.NewReader(frame)}
	ft, got, err := ReadFrame(whole)
	if err != nil || ft != FrameChunk || !bytes.Equal(got, payload) {
		t.Fatalf("whole reads: type %v, err %v, payload equal %v", ft, err, bytes.Equal(got, payload))
	}
	if whole.reads > 1+4 { // the header, then one read per growth step
		t.Errorf("%d-byte payload took %d Read calls", len(payload), whole.reads)
	}
	if _, got, err = ReadFrame(&countingReader{r: bytes.NewReader(frame), limit: 1000}); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fragmented reads: err %v, payload equal %v", err, bytes.Equal(got, payload))
	}
	cut := frame[:HeaderSize+frameReadChunk+17]
	if _, _, err = ReadFrame(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: err = %v, want wrapped io.ErrUnexpectedEOF", err)
	}
}

// fixCRC recomputes the header CRC after a test mutates header fields.
func fixCRC(frame []byte) {
	le := func(off int, v uint32) {
		frame[off] = byte(v)
		frame[off+1] = byte(v >> 8)
		frame[off+2] = byte(v >> 16)
		frame[off+3] = byte(v >> 24)
	}
	le(16, crc32.Checksum(frame[:16], frameCRC))
}

func TestPayloadCodecRoundTrip(t *testing.T) {
	sub := submitMsg{Job: 7, Deadline: 1500 * time.Millisecond, Tenant: "acme",
		Lo: grid.Point{1, 2, 3}, K: 2, Data: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	got, err := decodeSubmit(sub.encode())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(sub) {
		t.Fatalf("submit round trip: %+v != %+v", got, sub)
	}

	// Mismatched sample count and out-of-range k are rejected.
	bad := sub
	bad.Data = bad.Data[:7]
	if _, err := decodeSubmit(bad.encode()); err == nil {
		t.Error("short Data: want error")
	}
	bad = sub
	bad.K = 4096
	bad.Data = nil
	if _, err := decodeSubmit(bad.encode()); err == nil {
		t.Error("oversized k: want error")
	}

	st := statusMsg{Job: 9, Code: StatusOverloadedQueue, RetryAfter: 250 * time.Millisecond, Msg: "queue full"}
	gotSt, err := decodeStatus(st.encode())
	if err != nil || gotSt != st {
		t.Fatalf("status round trip: %+v, %v", gotSt, err)
	}

	ch := chunkMsg{Job: 3, Chunk: sample.Chunk{Offset: 64, Total: 256, CRC: 0xdead, Payload: []byte("xyz")}}
	gotCh, err := decodeChunk(ch.encode())
	if err != nil || gotCh.Job != 3 || gotCh.Chunk.Offset != 64 || gotCh.Chunk.Total != 256 ||
		gotCh.Chunk.CRC != 0xdead || !bytes.Equal(gotCh.Chunk.Payload, []byte("xyz")) {
		t.Fatalf("chunk round trip: %+v, %v", gotCh, err)
	}

	// Trailing garbage after a fixed-layout message is rejected.
	if _, err := decodeAck(append(ackMsg{Job: 1, Offset: 2}.encode(), 0)); err == nil {
		t.Error("trailing bytes: want error")
	}
}
