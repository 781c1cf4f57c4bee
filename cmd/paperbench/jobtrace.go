package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/report"
	"lowcomm3d/internal/serve"
)

// jobTracePath is where -job-trace writes the Chrome-trace artifact.
var jobTracePath string

// jobTraceStudy runs a small multi-tenant workload through the serving
// engine with per-job lifecycle tracing on, writes the Chrome trace
// (chrome://tracing / Perfetto JSON) of every job's timeline to the
// -job-trace path, and prints the per-tenant SLO breakdown: end-to-end
// latency decomposed into the place/queue/compute/stream phases that the
// lowcomm_job_phase_seconds exposition serves in production. The phases
// partition e2e exactly, so the shares column always sums to 100%.
func jobTraceStudy() error {
	if jobTracePath == "" {
		jobTracePath = "paperbench-jobtrace.json"
	}
	const (
		n         = 64
		k         = 16
		perTenant = 8
		seed      = 42
	)
	tenants := []string{"astro", "fluids", "imaging"}
	boxes := []grid.Box{
		grid.CubeAt(grid.Point{0, 0, 0}, k),
		grid.CubeAt(grid.Point{16, 16, 16}, k),
		grid.CubeAt(grid.Point{32, 32, 32}, k),
		grid.CubeAt(grid.Point{48, 48, 48}, k),
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

	col := jobtrace.NewCollector()
	eng, err := serve.New(serve.Options{
		Dim: grid.Cube(n), Kernel: green.Gaussian{Sigma: 2}, FarRate: 8,
		Workers: 2, Device: gpu.V100_16GB(), Jobs: col,
	})
	if err != nil {
		return err
	}
	defer eng.Drain()

	for i := 0; i < perTenant; i++ {
		for _, tenant := range tenants {
			res, err := eng.Submit(context.Background(), tenant, boxes[i%len(boxes)], inputs[i%len(boxes)])
			if err != nil {
				return err
			}
			res.Release()
		}
	}

	t := report.New(fmt.Sprintf("per-job tracing — tenant SLO breakdown, N=%d k=%d, %d jobs/tenant, 2 workers",
		n, k, perTenant),
		"tenant", "jobs", "e2e mean", "place", "queue", "compute", "stream")
	share := func(part, whole int64) string {
		if whole <= 0 {
			return "—"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
	}
	for _, tp := range col.PhaseSnapshots() {
		if tp.E2E.Count == 0 {
			continue
		}
		mean := time.Duration(tp.E2E.SumNs / tp.E2E.Count)
		t.AddCells(tp.Tenant, fmt.Sprint(tp.E2E.Count), report.Seconds(mean.Seconds()),
			share(tp.Place.SumNs, tp.E2E.SumNs), share(tp.Queue.SumNs, tp.E2E.SumNs),
			share(tp.Compute.SumNs, tp.E2E.SumNs), share(tp.Stream.SumNs, tp.E2E.SumNs))
	}
	t.Render(os.Stdout)

	out, err := os.Create(jobTracePath)
	if err != nil {
		return err
	}
	if err := col.WriteChromeTrace(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d job timelines to %s (load in chrome://tracing or ui.perfetto.dev)\n",
		len(col.Jobs()), jobTracePath)
	return nil
}
