package fleet

import (
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
)

func benchScheduler(b *testing.B) *Scheduler {
	b.Helper()
	devs := make([]*gpu.Device, 8)
	boxes := make([]int, 8)
	for i := range devs {
		devs[i] = &gpu.Device{Name: "bench", Capacity: 32 * gpu.GiB}
		boxes[i] = i / 4
	}
	s, err := NewScheduler(Options{Devices: devs, BoxOf: boxes, N: 1024, FarRate: 16})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFleetPlacement measures the serve-facing admission hot path —
// cheapest-device selection plus ledger reservation — which must stay
// allocation-free so a warm serve.Submit stays at 0 allocs/op.
func BenchmarkFleetPlacement(b *testing.B) {
	s := benchScheduler(b)
	defer s.Close()
	fp := s.Footprint(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		di, err := s.Place(32, fp, i&1)
		if err != nil {
			b.Fatal(err)
		}
		s.Release(di, fp)
	}
}

// TestPlacementZeroAllocs pins the benchmark's allocs/op at exactly zero.
func TestPlacementZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	devs := []*gpu.Device{gpu.V100_32GB(), gpu.V100_32GB()}
	s, err := NewScheduler(Options{Devices: devs, N: 1024, FarRate: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp := s.Footprint(32)
	allocs := testing.AllocsPerRun(200, func() {
		di, err := s.Place(32, fp, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(di, fp)
	})
	if allocs != 0 {
		t.Errorf("Place/Release allocates %v objects per op, want 0", allocs)
	}
}

// BenchmarkEngineSolve times one Engine.Solve at the shape of the
// solve-n64-k16 workload: 64³ in 16³ boxes, far rate 16, the Gaussian
// σ = 2 kernel, two V100 devices and one FFT worker per pipeline. The
// engine is built and warmed by one solve before the timer starts, so a
// CPU profile of it (-cpuprofile) shows a warm solve's work.
func BenchmarkEngineSolve(b *testing.B) {
	b.Run("n64-k16", func(b *testing.B) {
		e, err := NewEngine(EngineOptions{
			Fleet:   Options{Devices: []*gpu.Device{gpu.V100_32GB(), gpu.V100_32GB()}, N: 64, FarRate: 16},
			Kernel:  green.Gaussian{Sigma: 2},
			SubSize: 16,
			Conv:    conv.Config{Workers: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		f := testField(64, 1)
		if _, _, err := e.Solve("bench", f); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.Solve("bench", f); err != nil {
				b.Fatal(err)
			}
		}
	})
}
