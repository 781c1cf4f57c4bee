package conv

import (
	"math/rand"
	"sync"
	"testing"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/sample"
)

// TestDecomposedLazyExtractionFootprint pins the lazy-extraction fix:
// Decomposed.Run must extract sub-fields inside the worker loop, so the
// high-water count of simultaneously-live k³ input copies is bounded by
// the Parallel worker count. The pre-fix code extracted every non-zero
// sub-box up front, which would report a high-water mark equal to the job
// count (64 here).
func TestDecomposedLazyExtractionFootprint(t *testing.T) {
	d := grid.Cube(16)
	f := grid.NewField(d)
	rng := rand.New(rand.NewSource(11))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64() + 2 // strictly nonzero: no skips
	}
	tr := obs.New()
	for _, workers := range []int{1, 2} {
		dc := Decomposed{
			Kernel: green.Delta{}, SubSize: 4, FarRate: 8, Parallel: workers,
			Cfg: Config{Trace: tr},
		}
		got, ds, err := dc.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		sameField(t, got, policyRun(t, f, green.Delta{}, liveBoxes(t, f, 4), defaultPolicy(8)))
		if got := len(ds.PerSub); got != 64 {
			t.Fatalf("Parallel=%d: ran %d sub-domains, want 64", workers, got)
		}
		if ds.MaxLiveSubFields < 1 || ds.MaxLiveSubFields > workers {
			t.Errorf("Parallel=%d: %d sub-fields live at peak, want 1..%d (eager extraction would report 64)",
				workers, ds.MaxLiveSubFields, workers)
		}
	}
	if hw := tr.Gauge("conv.live_subfields").Value(); hw < 1 || hw > 2 {
		t.Errorf("conv.live_subfields gauge = %d, want 1..2", hw)
	}
}

// TestSharedTraceConcurrentPipelines runs a Batch and a Decomposed
// pipeline (Parallel > 1, per-pipeline workers > 1) concurrently against
// ONE obs.Trace — the sharing pattern of a serving process where every
// pipeline reports into the process-wide registry. Run under -race (make
// verify) this pins that the trace's counters, gauges, histograms, and
// span recording are safe across concurrent pipelines.
func TestSharedTraceConcurrentPipelines(t *testing.T) {
	tr := obs.New()
	d := grid.Cube(16)
	f := blobField(d, 17)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		dc := Decomposed{
			Kernel: green.Gaussian{Sigma: 1.5}, SubSize: 4, FarRate: 8,
			Parallel: 3, Cfg: Config{Workers: 1, Trace: tr},
		}
		if _, _, err := dc.Run(f); err != nil {
			errs <- err
		}
	}()
	go func() {
		defer wg.Done()
		boxes, err := grid.Decompose(d, 8)
		if err != nil {
			errs <- err
			return
		}
		cfg := Config{Workers: 2, Trace: tr}
		ps, err := NewPlanSet(d, cfg.Workers)
		if err != nil {
			errs <- err
			return
		}
		pw := KernelPointwise(d, green.Gaussian{Sigma: 1.5})
		for i, box := range boxes {
			tree, err := sample.DefaultPolicy(box, 16).Tree(d)
			if err != nil {
				errs <- err
				return
			}
			local, err := ps.NewLocal(box, tree, 1, pw, cfg)
			if err != nil {
				errs <- err
				return
			}
			if _, _, err := local.Run(randSub(8, int64(i+1))); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tr.CounterValue("conv.pencils") <= 0 {
		t.Error("shared trace recorded no pencils")
	}
	if tr.Histogram("conv.stage_b_seconds").Snapshot("").Count <= 0 {
		t.Error("shared trace recorded no stage-B latencies")
	}
}
