package fleet

import (
	"fmt"
	"math/rand"
	"testing"

	"lowcomm3d/internal/gpu"
)

// bestCost prices the cheapest currently-admissible device for a k³ job on
// the reservation path without reserving anything: the device Place would
// pick (-1 when none is admissible now), its cost, and whether any device
// could ever admit the footprint.
func bestCost(s *Scheduler, k int, footprint int64, homeBox int) (dev int, cost float64, fits bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bestExplainLocked(k, footprint, homeBox, false, 0, 1, nil)
}

// TestPlacementCostMonotone is the metamorphic suite over the cost
// model: properties that must hold for ANY valid input, checked on
// seeded random configurations instead of hand-picked examples.
//
//   - Shrinking k never increases a job's placement cost (smaller jobs
//     move less and compute less; valid for far rates ≥ 8, where the
//     kept-plane count is monotone in k).
//   - Adding a device to a fleet never increases the best placement
//     cost (the minimum over a superset cannot grow).
//   - Batching j compatible jobs never costs more than j solo runs, and
//     strictly amortizes, checked against the gpu.DGX2BatchStudy rows.
func TestPlacementCostMonotone(t *testing.T) {
	t.Run("shrinking-k", func(t *testing.T) {
		m := CostModel{}.withDefaults()
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := []int{256, 512, 1024}[rng.Intn(3)]
			far := []int{8, 16, 32}[rng.Intn(3)]
			crossBox := rng.Intn(2) == 0
			backlog := rng.Intn(5)
			ewma := rng.Float64() * 0.1
			for k := n / 2; k >= 2*far && k >= 16; k /= 2 {
				big, err := m.PlacementSeconds(n, k, far, crossBox, backlog, ewma)
				if err != nil {
					t.Fatalf("seed %d n=%d k=%d: %v", seed, n, k, err)
				}
				small, err := m.PlacementSeconds(n, k/2, far, crossBox, backlog, ewma)
				if err != nil {
					t.Fatalf("seed %d n=%d k=%d: %v", seed, n, k/2, err)
				}
				if small > big*(1+1e-12) {
					t.Errorf("seed %d n=%d far=%d: cost(k=%d)=%.6e > cost(k=%d)=%.6e — shrinking k increased cost",
						seed, n, far, k/2, small, k, big)
				}
			}
		}
	})

	t.Run("adding-a-device", func(t *testing.T) {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nDev := 1 + rng.Intn(4)
			devs := make([]*gpu.Device, nDev)
			boxes := make([]int, nDev)
			for i := range devs {
				devs[i] = &gpu.Device{
					Name:     fmt.Sprintf("d%d", i),
					Capacity: int64(2+rng.Intn(7)) * gpu.GiB,
				}
				boxes[i] = rng.Intn(2)
			}
			grown := append(append([]*gpu.Device{}, devs...),
				&gpu.Device{Name: "extra", Capacity: 32 * gpu.GiB})
			grownBoxes := append(append([]int{}, boxes...), rng.Intn(2))

			mk := func(d []*gpu.Device, b []int) *Scheduler {
				s, err := NewScheduler(Options{Devices: d, BoxOf: b, N: 1024, FarRate: 16})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			small, big := mk(devs, boxes), mk(grown, grownBoxes)
			for _, k := range []int{32, 64, 128} {
				fp := small.Footprint(k)
				for home := 0; home < 2; home++ {
					d1, c1, _ := bestCost(small, k, fp, home)
					d2, c2, fits2 := bestCost(big, k, fp, home)
					if d1 < 0 {
						continue // smaller fleet can't place it; nothing to compare
					}
					if d2 < 0 || !fits2 {
						t.Errorf("seed %d k=%d: grown fleet lost admissibility (small dev %d)", seed, k, d1)
						continue
					}
					if c2 > c1*(1+1e-12) {
						t.Errorf("seed %d k=%d home=%d: adding a device raised best cost %.6e -> %.6e",
							seed, k, home, c1, c2)
					}
				}
			}
			small.Close()
			big.Close()
		}
	})

	t.Run("batching-amortizes", func(t *testing.T) {
		rows, err := gpu.DGX2BatchStudy()
		if err != nil {
			t.Fatal(err)
		}
		m := CostModel{}.withDefaults()
		for _, row := range rows {
			solo, err := m.ComputeSeconds(row.N, row.K, row.R)
			if err != nil {
				t.Fatalf("N=%d: %v", row.N, err)
			}
			// The model prices compute with the study's batch dial, so a
			// single job must match the study's per-convolution seconds.
			if diff := solo/row.ConvSec - 1; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("N=%d: ComputeSeconds %.6e != study ConvSec %.6e", row.N, solo, row.ConvSec)
			}
			for jobs := 2; jobs <= 8; jobs++ {
				batched, err := batchSeconds(m, row.N, row.K, row.R, jobs)
				if err != nil {
					t.Fatalf("N=%d jobs=%d: %v", row.N, jobs, err)
				}
				if batched >= float64(jobs)*solo {
					t.Errorf("N=%d jobs=%d: batched %.6e ≥ %d solo runs %.6e — batching failed to amortize",
						row.N, jobs, batched, jobs, float64(jobs)*solo)
				}
			}
		}
	})
}
