package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"lowcomm3d/internal/fleet"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/grid"
)

// TestOverloadRetryAfterPerDevice is the regression test for the
// single-EWMA RetryAfter bug: before the fleet scheduler, the engine
// kept ONE smoothed job duration across all devices, so a burst of fast
// jobs on a small device dragged the hint down and a rejection from the
// busy slow device advertised a wait far below reality. With per-device
// EWMAs, a memory rejection's hint is priced from the EWMA of the device
// that would admit the job.
//
// Scenario: device A only fits small (k=4) jobs; device B fits big (k=8)
// jobs, which take ~60 ms. After one completed big job (B's EWMA ≈
// 60 ms) and 16 sub-millisecond small jobs (which, pre-fix, decay the
// blended EWMA to ≈ 60·(7/8)¹⁶ ≈ 7 ms), two big jobs occupy B and a
// third is rejected. The fix requires the hint to reflect B's own EWMA
// times its backlog (≈ 180 ms); the pre-fix blend yields ≈ 7–14 ms and
// fails the 50 ms floor.
func TestOverloadRetryAfterPerDevice(t *testing.T) {
	const n = 16
	dim := grid.Cube(n)
	fpSmall := gpu.JobFootprint(n, 4, 16)
	fpBig := gpu.JobFootprint(n, 8, 16)

	devA := &gpu.Device{Name: "A-small", Capacity: fpSmall + fpSmall/2}
	devB := &gpu.Device{Name: "B-big", Capacity: 2*fpBig + fpBig/2}
	if fpBig <= devA.Capacity {
		t.Fatalf("precondition: big footprint %d must exceed device A capacity %d", fpBig, devA.Capacity)
	}

	started := make(chan struct{}, 4)
	release := make(chan struct{})
	e := testEngine(t, Options{
		Dim: dim, Workers: 4, QueueDepth: 16,
		Devices: []*gpu.Device{devA, devB},
		testHookRun: func(tenant string) {
			switch tenant {
			case "warm":
				time.Sleep(60 * time.Millisecond) // one slow big job seeds B's EWMA
			case "hold":
				started <- struct{}{}
				<-release // occupy B's memory while the victim submits
			}
		},
	})
	defer close(release)

	bigBox := grid.CubeAt(grid.Point{0, 0, 0}, 8)
	smallBox := grid.CubeAt(grid.Point{0, 0, 0}, 4)
	bigIn, smallIn := testField(8, 1), testField(4, 2)

	res, err := e.Submit(context.Background(), "warm", bigBox, bigIn)
	if err != nil {
		t.Fatalf("warm big job: %v", err)
	}
	res.Release()

	// Fast small jobs land on A (it is the cheapest admissible device for
	// them) and, pre-fix, would decay a blended EWMA toward microseconds.
	for i := 0; i < 16; i++ {
		res, err := e.Submit(context.Background(), "small", smallBox, smallIn)
		if err != nil {
			t.Fatalf("small job %d: %v", i, err)
		}
		res.Release()
	}

	for i := 0; i < 2; i++ {
		go e.Submit(context.Background(), "hold", bigBox, bigIn)
	}
	<-started
	<-started // B now holds two big reservations; a third cannot fit

	_, err = e.Submit(context.Background(), "victim", bigBox, bigIn)
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if oe.Reason != "device memory" {
		t.Fatalf("reason = %q, want device memory", oe.Reason)
	}
	if oe.Device != devB.Name {
		t.Errorf("hint names device %q, want %q (the device closest to admitting)", oe.Device, devB.Name)
	}
	// B's own EWMA (≈60 ms) × its backlog (2 in flight + 1) ≈ 180 ms.
	// The pre-fix blended hint is an order of magnitude below this floor.
	if oe.RetryAfter < 50*time.Millisecond {
		t.Errorf("RetryAfter = %v, want ≥ 50ms: hint priced from a fleet-wide EWMA blend, not device %s's own latency",
			oe.RetryAfter, devB.Name)
	}
}

// TestSingleDeviceOptionIsOneDeviceFleet pins back-compat: Options.Device
// alone behaves as a one-entry Devices fleet (same admission, same
// typed errors).
func TestSingleDeviceOptionIsOneDeviceFleet(t *testing.T) {
	tiny := &gpu.Device{Name: "tiny", Capacity: 1024}
	e := testEngine(t, Options{Dim: grid.Cube(16), Workers: 1, Device: tiny})
	_, err := e.Submit(context.Background(), "a", grid.CubeAt(grid.Point{0, 0, 0}, 4), testField(4, 1))
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOverloaded wrapping gpu.ErrOutOfMemory", err)
	}
	if e.sched == nil || e.sched.Devices() != 1 {
		t.Fatal("Options.Device did not become a one-device admission fleet")
	}
}

// TestSubmitFleetDeadTyped pins degraded admission's floor at the serve
// layer: with every fleet device dead, Submit returns the typed
// fleet.ErrFleetDead — not an OverloadError, whose RetryAfter would tell
// clients a retry could help.
func TestSubmitFleetDeadTyped(t *testing.T) {
	devs := []*gpu.Device{gpu.V100_16GB(), gpu.V100_16GB()}
	e := testEngine(t, Options{Dim: grid.Cube(16), Workers: 1, Devices: devs})
	for di := range devs {
		e.sched.ReportDeviceFailure(di, errors.New("test crash"))
	}
	_, err := e.Submit(context.Background(), "a", grid.CubeAt(grid.Point{0, 0, 0}, 8), testField(8, 1))
	if !errors.Is(err, fleet.ErrFleetDead) {
		t.Fatalf("err = %v, want fleet.ErrFleetDead", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("fleet-dead surfaced as ErrOverloaded: %v", err)
	}
}
