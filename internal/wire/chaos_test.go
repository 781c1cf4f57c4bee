package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/serve"
	"lowcomm3d/internal/telemetry"
)

// The chaos matrix exercises the acceptance contract of the wire layer:
// for every seeded fault schedule, a client Submit either completes with
// a result byte-identical to the fault-free run or returns a typed error
// — and in both cases nothing hangs and no goroutine outlives its server.
//
// Determinism comes from cluster.ChaosConn: fault decisions depend only
// on (seed, write index), and both endpoints emit exactly one conn.Write
// per frame, so a write index IS a protocol state. Sweeping each fault
// kind across the first six writes of each side covers handshake, submit,
// and the streaming window on the server conn, and handshake, submit, and
// the ack stream on the client conn.

// chaosKinds are the fault classes of the matrix, by ChaosConn semantics:
// drop turns the conn silently half-open, corrupt flips one bit of one
// frame, delay stalls a write, close tears the conn down.
var chaosKinds = []struct {
	name string
	kind cluster.ConnFaultKind
}{
	{"drop", cluster.ConnDrop},
	{"corrupt", cluster.ConnCorrupt},
	{"delay", cluster.ConnDelay},
	{"close", cluster.ConnClose},
}

// typedWireError reports whether err is one of the protocol's declared
// failure shapes — the only errors a chaos run may surface.
func typedWireError(err error) bool {
	var se *StatusError
	return errors.As(err, &se) ||
		errors.Is(err, ErrUnavailable) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// chaosCase runs one Submit against a server/client pair with the given
// fault schedule installed on the first connection of one side, and
// checks the complete-identical-or-typed-error contract.
func chaosCase(t *testing.T, eng *serve.Engine, flight *telemetry.Recorder, want []float64,
	serverSide bool, plan cluster.FaultPlan, points ...cluster.ConnFaultPoint) {
	t.Helper()
	srvOpts := ServerOptions{
		ChunkBytes: 64,
		Window:     128,
		SessionTTL: 2 * time.Second,
		Flight:     flight,
	}
	var wrapped atomic.Bool
	if serverSide {
		srvOpts.ConnWrap = func(c net.Conn) net.Conn {
			// Only the first accepted connection is faulty, so recovery on
			// a fresh connection can always succeed; the fault schedule
			// itself stays fully deterministic.
			if wrapped.CompareAndSwap(false, true) {
				return cluster.NewChaosConn(c, plan, points...)
			}
			return c
		}
	}
	srv := testServer(t, eng, srvOpts)

	opts := testClientOptions(srv.Addr().String())
	opts.MaxReconnects = 16
	if !serverSide {
		dialed := false
		opts.Dial = func() (net.Conn, error) {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil || dialed {
				return conn, err
			}
			dialed = true
			return cluster.NewChaosConn(conn, plan, points...), nil
		}
	}
	c := NewClient(opts)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	got, err := c.Submit(ctx, "chaos", box, testField(4, 42))
	switch {
	case err == nil:
		sameSamples(t, got, want)
	case typedWireError(err):
		t.Logf("typed error (acceptable outcome): %v", err)
	default:
		t.Fatalf("untyped error escaped the wire layer: %v", err)
	}
	c.Close()
	srv.Drain()
}

// dumpPostmortem writes the flight recorder's postmortem to the path in
// $WIRE_POSTMORTEM (CI's verify job uploads it on failure), if set.
func dumpPostmortem(t *testing.T, flight *telemetry.Recorder) {
	t.Helper()
	path := os.Getenv("WIRE_POSTMORTEM")
	if path == "" {
		return
	}
	if err := flight.DumpFile(path); err != nil {
		t.Errorf("writing postmortem artifact: %v", err)
	}
}

// TestWireChaosMatrix sweeps every fault kind across the first six write
// indices of each side's first connection.
func TestWireChaosMatrix(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	before := runtime.NumGoroutine()
	flight := telemetry.NewRecorder(8, 64)
	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	want := directResult(t, eng, "chaos", box, testField(4, 42))

	for _, side := range []struct {
		name   string
		server bool
	}{{"client-conn", false}, {"server-conn", true}} {
		for _, k := range chaosKinds {
			for w := 1; w <= 6; w++ {
				name := fmt.Sprintf("%s/%s/write%d", side.name, k.name, w)
				t.Run(name, func(t *testing.T) {
					chaosCase(t, eng, flight, want, side.server,
						cluster.FaultPlan{Seed: int64(w)},
						cluster.ConnFaultPoint{Write: w, Kind: k.kind})
				})
			}
		}
	}
	dumpPostmortem(t, flight)
	checkGoroutines(t, before)
}

// TestWireChaosTraceResume kills the first server connection mid-stream
// and checks the tracing contract across the recovery: the resumed
// session keeps the server-minted TraceID (the client sees one id across
// both connections), and the reassembled timeline in the shared jobtrace
// collector is gap-free — sequence numbers dense from zero, timestamps
// monotone, exactly one admission and one completion, no restart
// artifacts. Run under -race this also exercises the trace handoff
// between the session pump, ack handler, and failover paths.
func TestWireChaosTraceResume(t *testing.T) {
	col := jobtrace.NewCollector()
	eng := testEngine(t, serve.Options{Jobs: col, Device: gpu.V100_16GB()})
	before := runtime.NumGoroutine()
	flight := telemetry.NewRecorder(8, 64)
	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	want := directResult(t, eng, "trace", box, testField(4, 42))

	srvOpts := ServerOptions{
		// A handful of chunks per result: enough that the close lands
		// mid-stream, few enough that stream+ack events fit the ring.
		ChunkBytes: 1024,
		Window:     4096,
		SessionTTL: 2 * time.Second,
		Flight:     flight,
		Jobs:       col,
	}
	var wrapped atomic.Bool
	srvOpts.ConnWrap = func(c net.Conn) net.Conn {
		// First accepted connection dies at its third write: welcome,
		// one chunk, then gone. The retry connects clean and resumes.
		if wrapped.CompareAndSwap(false, true) {
			return cluster.NewChaosConn(c, cluster.FaultPlan{Seed: 1},
				cluster.ConnFaultPoint{Write: 3, Kind: cluster.ConnClose})
		}
		return c
	}
	srv := testServer(t, eng, srvOpts)

	c := NewClient(testClientOptions(srv.Addr().String()))
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	got, err := c.Submit(ctx, "trace", box, testField(4, 42))
	if err != nil {
		t.Fatalf("submit across mid-stream close: %v", err)
	}
	sameSamples(t, got, want)
	if n := c.Trace().CounterValue("wire.client.resumes"); n < 1 {
		t.Fatalf("resumes = %d; the fault did not force a session resume", n)
	}
	id := c.LastTraceID()
	if id == 0 {
		t.Fatal("LastTraceID() = 0; server did not echo a TraceID")
	}

	// The server finishes the timeline when the final ack lands, which
	// races the client's return; poll for the completed snapshot.
	var snap jobtrace.JobSnapshot
	deadline := time.Now().Add(2 * time.Second)
	for {
		var ok bool
		if snap, ok = col.Job(jobtrace.TraceID(id)); ok && snap.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %d not finished in collector (found=%v done=%v)", id, ok, snap.Done)
		}
		time.Sleep(time.Millisecond)
	}

	if snap.Tenant != "trace" {
		t.Fatalf("tenant = %q, want %q", snap.Tenant, "trace")
	}
	if snap.Dropped != 0 {
		t.Fatalf("timeline dropped %d events; reassembly has gaps", snap.Dropped)
	}
	counts := map[string]int{}
	var lastAt int64
	for i, ev := range snap.Events {
		if ev.Seq != uint32(i) {
			t.Fatalf("event %d: seq %d; sequence not dense (gap or duplicate)", i, ev.Seq)
		}
		if ev.AtNs < lastAt {
			t.Fatalf("event %d (%s): timestamp went backwards", i, ev.Kind)
		}
		lastAt = ev.AtNs
		counts[ev.Kind]++
	}
	if counts["admit"] != 1 || counts["complete"] != 1 {
		t.Fatalf("admit=%d complete=%d; want exactly one of each (no restart artifacts): %v",
			counts["admit"], counts["complete"], counts)
	}
	if counts["fail"] != 0 {
		t.Fatalf("timeline records %d failures on a successful job: %+v", counts["fail"], snap.Events)
	}
	for _, k := range []string{"place", "dequeue", "stream", "ack"} {
		if counts[k] == 0 {
			t.Fatalf("timeline missing %q events: %v", k, counts)
		}
	}
	if counts["stream"] < 2 {
		t.Fatalf("stream events = %d; want several chunks spanning the reconnect", counts["stream"])
	}

	c.Close()
	srv.Drain()
	checkGoroutines(t, before)
}

// TestWireChaosSeeded runs seeded probabilistic schedules on BOTH sides
// of EVERY connection (reconnects included), the regime where faults can
// compound: a resume can itself be corrupted, a reconnect can drop. The
// contract stays the same; with faults on every connection, exhausting
// the reconnect budget (typed ErrUnavailable) is a legitimate outcome.
func TestWireChaosSeeded(t *testing.T) {
	eng := testEngine(t, serve.Options{})
	before := runtime.NumGoroutine()
	flight := telemetry.NewRecorder(8, 64)
	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	want := directResult(t, eng, "chaos", box, testField(4, 42))

	completed := 0
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plan := cluster.FaultPlan{
				Seed:        seed,
				DropProb:    0.01,
				CorruptProb: 0.03,
				DelayProb:   0.10,
				Delay:       time.Millisecond,
			}
			srvOpts := ServerOptions{
				ChunkBytes: 128,
				Window:     512,
				SessionTTL: 2 * time.Second,
				Flight:     flight,
			}
			// Each connection gets its own seed (derived, still
			// deterministic): a schedule whose write 2 always corrupts
			// would otherwise replay identically on every reconnect and
			// foreclose recovery.
			var accepts atomic.Int64
			srvOpts.ConnWrap = func(c net.Conn) net.Conn {
				p := plan
				p.Seed = plan.Seed*1000 + accepts.Add(1)
				return cluster.NewChaosConn(c, p)
			}
			srv := testServer(t, eng, srvOpts)

			opts := testClientOptions(srv.Addr().String())
			opts.MaxReconnects = 64
			opts.MaxRetries = 8
			dials := int64(0)
			opts.Dial = func() (net.Conn, error) {
				conn, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					return nil, err
				}
				p := plan
				dials++
				p.Seed = plan.Seed*1000 + 500 + dials
				return cluster.NewChaosConn(conn, p), nil
			}
			c := NewClient(opts)
			defer c.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			got, err := c.Submit(ctx, "chaos", box, testField(4, 42))
			switch {
			case err == nil:
				sameSamples(t, got, want)
				completed++
			case typedWireError(err):
				t.Logf("seed %d: typed error: %v", seed, err)
			default:
				t.Fatalf("seed %d: untyped error escaped the wire layer: %v", seed, err)
			}
			c.Close()
			srv.Drain()
		})
	}
	if completed == 0 {
		t.Error("no seeded schedule completed; fault rates leave no recovery path")
	}
	dumpPostmortem(t, flight)
	checkGoroutines(t, before)
}
