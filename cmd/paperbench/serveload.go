package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/report"
	"lowcomm3d/internal/serve"
)

// serveLoadStudy drives the steady-state serving engine (§3.1's
// plan-once-batch-many claim) with a seeded open-loop arrival process:
// Poisson arrivals at a chosen multiple of the engine's calibrated
// capacity, three tenants, four distinct sub-domain boxes sharing one
// plan set. Open-loop means arrivals ignore completions — exactly the
// regime where admission control matters: below capacity everything is
// served, above it the bounded queue sheds load with typed, retryable
// rejections instead of collapsing. One engine worker keeps the study
// meaningful on any core count (capacity is then 1/service-time even on
// a single-CPU runner); the job is sized so service time dwarfs
// scheduler pacing jitter.
func serveLoadStudy() error {
	const (
		n    = 64
		k    = 16
		jobs = 32
		seed = 42
	)
	dim := grid.Cube(n)
	kernel := green.Gaussian{Sigma: 2}
	boxes := []grid.Box{
		grid.CubeAt(grid.Point{0, 0, 0}, k),
		grid.CubeAt(grid.Point{16, 16, 16}, k),
		grid.CubeAt(grid.Point{32, 32, 32}, k),
		grid.CubeAt(grid.Point{48, 48, 48}, k),
	}
	tenants := []string{"astro", "fluids", "imaging"}
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]*grid.Field, len(boxes))
	for i := range inputs {
		f := grid.NewField(grid.Cube(k))
		for j := range f.Data {
			f.Data[j] = rng.NormFloat64()
		}
		inputs[i] = f
	}
	newEngine := func(dev *gpu.Device, depth int) (*serve.Engine, error) {
		return serve.New(serve.Options{
			Dim: dim, Kernel: kernel, FarRate: 8,
			Workers: 1, QueueDepth: depth, Device: dev,
		})
	}
	// warm submits every (tenant, box) pair through an engine so its plan
	// set and pipelines exist before anything is measured.
	warm := func(eng *serve.Engine) error {
		for i := 0; i < 2*len(boxes); i++ {
			res, err := eng.Submit(context.Background(), tenants[i%len(tenants)], boxes[i%len(boxes)], inputs[i%len(boxes)])
			if err != nil {
				return err
			}
			res.Release()
		}
		return nil
	}

	// Calibrate: warm sequential submits, service time read from the
	// engine's own serve.job_seconds histogram (pure execution — queue
	// wait and cross-goroutine wake-up latency excluded, which a
	// wall-clock probe would fold in and overstate). The fresh device's
	// high-water mark after a one-at-a-time run is the per-job modeled
	// footprint.
	calDev := gpu.V100_16GB()
	cal, err := newEngine(calDev, 4)
	if err != nil {
		return err
	}
	if err := warm(cal); err != nil {
		return err
	}
	calHist := cal.Trace().Histogram("serve.job_seconds")
	calC0, calS0 := calHist.Count(), calHist.Sum() // exclude warm-up (cold plan builds)
	const calJobs = 16
	for i := 0; i < calJobs; i++ {
		res, err := cal.Submit(context.Background(), tenants[i%len(tenants)], boxes[i%len(boxes)], inputs[i%len(boxes)])
		if err != nil {
			return err
		}
		res.Release()
	}
	var svc time.Duration
	if cn := calHist.Count() - calC0; cn > 0 {
		svc = (calHist.Sum() - calS0) / time.Duration(cn)
	}
	if svc <= 0 {
		svc = time.Millisecond
	}
	fp := calDev.Peak()
	cal.Drain()
	planHits := cal.Trace().CounterValue("serve.plan_cache_hits")
	planMisses := cal.Trace().CounterValue("serve.plan_cache_misses")

	levels := []struct {
		name  string
		load  float64 // offered rate as a multiple of calibrated capacity
		dev   *gpu.Device
		depth int
	}{
		{"0.5x", 0.5, gpu.V100_16GB(), 6},
		{"1x", 1, gpu.V100_16GB(), 6},
		{"2x", 2, gpu.V100_16GB(), 6},
		{"8x", 8, gpu.V100_16GB(), 6},
		// Ledger sized for 2.5 concurrent jobs: admission hits the memory
		// gate before the queue bound, exercising the other reject path.
		{"2x, 2.5-job device", 2, &gpu.Device{Name: "constrained", Capacity: 2*fp + fp/2}, 6},
	}
	t := report.New(fmt.Sprintf("§3.1 serving — seeded open-loop Poisson load, N=%d k=%d, 1 worker, %d jobs/level, %d tenants, queue depth 6",
		n, k, jobs, len(tenants)),
		"offered load", "done", "rej queue", "rej mem", "p50", "p95", "retry hint")
	for li, lv := range levels {
		eng, err := newEngine(lv.dev, lv.depth)
		if err != nil {
			return err
		}
		// Warm this engine's private caches so the measured window sees
		// steady-state serving, not one-off plan construction.
		if err := warm(eng); err != nil {
			return err
		}
		lv.dev.ResetPeak()
		interMean := float64(svc) / lv.load // mean ns between arrivals
		arr := rand.New(rand.NewSource(seed + int64(li) + 1))
		var (
			wg               sync.WaitGroup
			mu               sync.Mutex
			lats             []time.Duration
			rejQueue, rejMem int
			retrySum         time.Duration
		)
		next := time.Now()
		for i := 0; i < jobs; i++ {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				res, err := eng.Submit(context.Background(), tenants[i%len(tenants)], boxes[i%len(boxes)], inputs[i%len(boxes)])
				if err != nil {
					var ov *serve.OverloadError
					mu.Lock()
					defer mu.Unlock()
					if errors.As(err, &ov) {
						if errors.Is(err, gpu.ErrOutOfMemory) {
							rejMem++
						} else {
							rejQueue++
						}
						retrySum += ov.RetryAfter
					}
					return
				}
				lat := time.Since(t0)
				res.Release()
				mu.Lock()
				lats = append(lats, lat)
				mu.Unlock()
			}()
			next = next.Add(time.Duration(arr.ExpFloat64() * interMean))
		}
		wg.Wait()
		eng.Drain()
		planHits += eng.Trace().CounterValue("serve.plan_cache_hits")
		planMisses += eng.Trace().CounterValue("serve.plan_cache_misses")

		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		q := func(p float64) string {
			if len(lats) == 0 {
				return "—"
			}
			i := int(p * float64(len(lats)-1))
			return report.Seconds(lats[i].Seconds())
		}
		hint := "—"
		if rej := rejQueue + rejMem; rej > 0 {
			hint = report.Seconds((retrySum / time.Duration(rej)).Seconds())
		}
		t.AddCells(lv.name, fmt.Sprint(len(lats)), fmt.Sprint(rejQueue), fmt.Sprint(rejMem),
			q(0.50), q(0.95), hint)
	}
	t.Render(os.Stdout)
	fmt.Printf("\ncalibrated: %s per warm job, modeled footprint %s; plan sets: %d jobs run over %d builds across %d engines (one set each)\n",
		report.Seconds(svc.Seconds()), report.Bytes(fp), planHits, planMisses, len(levels)+1)
	return nil
}
