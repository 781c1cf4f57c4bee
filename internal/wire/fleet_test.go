package wire

import (
	"context"
	"errors"
	"testing"

	"lowcomm3d/internal/fleet"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/serve"
)

// TestClientFleetDeadStatus pins the degraded-admission protocol path:
// with every fleet device dead, a submit comes back as the typed
// StatusFleetDead — errors.Is(err, fleet.ErrFleetDead) holds across the
// wire, and the code is not retryable.
func TestClientFleetDeadStatus(t *testing.T) {
	devs := []*gpu.Device{gpu.V100_16GB(), gpu.V100_16GB()}
	eng := testEngine(t, serve.Options{Devices: devs})
	s := testServer(t, eng, ServerOptions{})
	c := NewClient(testClientOptions(s.Addr().String()))
	defer c.Close()

	for di := range devs {
		eng.Scheduler().ReportDeviceFailure(di, errDeadTest)
	}
	box := grid.CubeAt(grid.Point{0, 0, 0}, 8)
	_, err := c.Submit(context.Background(), "a", box, testField(8, 1))
	if !errors.Is(err, fleet.ErrFleetDead) {
		t.Fatalf("submit error %v, want fleet.ErrFleetDead across the wire", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != StatusFleetDead {
		t.Fatalf("submit error %v, want StatusFleetDead", err)
	}
	if se.Code.Retryable() {
		t.Fatalf("StatusFleetDead marked retryable")
	}
}

var errDeadTest = errors.New("test: induced device death")
