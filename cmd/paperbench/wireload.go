package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/report"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/serve"
	"lowcomm3d/internal/wire"
)

// wireLoadStudy drives the wire-protocol front door over real loopback
// TCP under seeded fault schedules on both sides of every connection:
// drops (half-open peers), bit-flip corruption, and injected latency,
// exactly the cluster.ChaosConn machinery the wire chaos matrix uses in
// tests, but against a full engine and multi-job clients. The contract
// under test is the protocol's headline claim: every job either completes
// byte-identical to its fault-free baseline or fails with a typed error —
// faults may cost reconnects, resumes, and retries, never corrupt
// results. The study fails if any result mismatches its baseline or any
// untyped error escapes.
func wireLoadStudy() error {
	const (
		n       = 32
		k       = 8
		jobs    = 6 // per fault schedule
		seed    = 42
		faultMs = 1
	)
	dim := grid.Cube(n)
	kernel := green.Gaussian{Sigma: 2}
	boxes := []grid.Box{
		grid.CubeAt(grid.Point{0, 0, 0}, k),
		grid.CubeAt(grid.Point{8, 8, 8}, k),
		grid.CubeAt(grid.Point{16, 16, 16}, k),
	}
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]*grid.Field, len(boxes))
	for i := range inputs {
		f := grid.NewField(grid.Cube(k))
		for j := range f.Data {
			f.Data[j] = rng.NormFloat64()
		}
		inputs[i] = f
	}

	eng, err := serve.New(serve.Options{
		Dim: dim, Kernel: kernel, FarRate: 8,
		Workers: 2, Trace: tr,
	})
	if err != nil {
		return err
	}
	defer eng.Drain()

	// Fault-free baselines, straight through the engine.
	want := make([][]float64, len(boxes))
	for i := range boxes {
		res, err := eng.Submit(context.Background(), "baseline", boxes[i], inputs[i])
		if err != nil {
			return err
		}
		want[i] = append([]float64(nil), res.Output.Samples...)
		res.Release()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}

	// Every accepted connection is faulty, with a per-connection derived
	// seed so the schedule is deterministic but reconnects are not doomed
	// to replay their predecessor's faults.
	plans := []struct {
		name               string
		drop, corrupt, dly float64
	}{
		{"clean", 0, 0, 0},
		{"lossy", 0.01, 0.02, 0.10},
		{"hostile", 0.02, 0.05, 0.10},
	}
	var accepts atomic.Int64
	var srvPlan atomic.Pointer[cluster.FaultPlan]
	srvPlan.Store(&cluster.FaultPlan{})
	srv := wire.NewServer(eng, ln, wire.ServerOptions{
		KeepAlive:   25 * time.Millisecond,
		IdleTimeout: 150 * time.Millisecond,
		SessionTTL:  5 * time.Second,
		ChunkBytes:  1024,
		Trace:       tr,
		Flight:      flight,
		ConnWrap: func(c net.Conn) net.Conn {
			p := *srvPlan.Load()
			if p.DropProb == 0 && p.CorruptProb == 0 && p.DelayProb == 0 {
				return c
			}
			p.Seed = p.Seed*1000 + accepts.Add(1)
			return cluster.NewChaosConn(c, p)
		},
	})
	defer srv.Drain()

	t := report.New("Wire front door under seeded faults — complete identical or fail typed",
		"schedule", "jobs", "ok", "typed err", "reconn", "resumes", "retries", "restarts")
	mismatches := 0
	for pi, p := range plans {
		plan := cluster.FaultPlan{
			Seed: int64(seed + pi), DropProb: p.drop, CorruptProb: p.corrupt,
			DelayProb: p.dly, Delay: faultMs * time.Millisecond,
		}
		srvPlan.Store(&plan)
		dials := int64(0)
		c := wire.NewClient(wire.ClientOptions{
			Dial: func() (net.Conn, error) {
				conn, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					return nil, err
				}
				if p.drop == 0 && p.corrupt == 0 && p.dly == 0 {
					return conn, nil
				}
				q := plan
				dials++
				q.Seed = plan.Seed*1000 + 500 + dials
				return cluster.NewChaosConn(conn, q), nil
			},
			KeepAlive:       25 * time.Millisecond,
			IdleTimeout:     150 * time.Millisecond,
			ProgressTimeout: 400 * time.Millisecond,
			ReconnectBase:   5 * time.Millisecond,
			MaxReconnects:   64,
			MaxRetries:      8,
		})

		ok, typed := 0, 0
		for j := 0; j < jobs; j++ {
			bi := j % len(boxes)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			res, err := c.Submit(ctx, "wire", boxes[bi], inputs[bi])
			cancel()
			switch {
			case err == nil:
				if !sampleEqual(res, want[bi]) {
					mismatches++
				} else {
					ok++
				}
			case typedWireErr(err):
				typed++
			default:
				c.Close()
				return fmt.Errorf("schedule %q job %d: untyped error escaped the wire layer: %w", p.name, j, err)
			}
		}
		ctr := func(name string) int64 { return c.Trace().CounterValue(name) }
		t.Add(p.name, jobs, ok, typed,
			ctr("wire.client.reconnects"), ctr("wire.client.resumes"),
			ctr("wire.client.retries"), ctr("wire.client.restarts"))
		c.Close()
	}
	t.Render(os.Stdout)
	fmt.Printf("server: %d sessions (%d resumed, %d expired), %d jobs completed, %d chunks (%d B), %d corrupt frames detected\n",
		srv.Trace().CounterValue("wire.sessions_opened"),
		srv.Trace().CounterValue("wire.sessions_resumed"),
		srv.Trace().CounterValue("wire.sessions_expired"),
		srv.Trace().CounterValue("wire.jobs_completed"),
		srv.Trace().CounterValue("wire.chunks_sent"),
		srv.Trace().CounterValue("wire.chunk_bytes_sent"),
		srv.Trace().CounterValue("wire.frames_corrupt"))
	if mismatches > 0 {
		return fmt.Errorf("%d results differed from their fault-free baseline", mismatches)
	}
	return nil
}

func sampleEqual(got *sample.Compressed, want []float64) bool {
	if got == nil || len(got.Samples) != len(want) {
		return false
	}
	for i := range want {
		if got.Samples[i] != want[i] {
			return false
		}
	}
	return true
}

// typedWireErr mirrors the wire package's declared failure shapes.
func typedWireErr(err error) bool {
	var se *wire.StatusError
	return errors.As(err, &se) ||
		errors.Is(err, wire.ErrUnavailable) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
