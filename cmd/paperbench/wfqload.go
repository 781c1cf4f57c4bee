package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/report"
	"lowcomm3d/internal/serve"
	"lowcomm3d/internal/telemetry"
)

// wfqLoadStudy is the weighted-fair queueing overload study, and it is
// self-checking: it fails (non-zero exit via main's run helper) unless
// the measured per-tenant drain shares match the configured weight ratio
// within wfqTolerance. Three tenants at weights 1:2:4 flood a one-worker
// engine so every tenant queue stays non-empty for the whole measured
// window — the regime where dispatch order alone decides who drains —
// and the shares are not read from engine internals but scraped live
// over HTTP from the study's own /metrics endpoint, exactly as an
// operator's Prometheus would see them. Scraping twice (a baseline once
// every tenant is past plan warm-up, then again after wfqWindowJobs
// further completions) keeps cold plan builds and ramp-up out of the
// window; with 50+ full deficit-round-robin rounds in the window, the
// ±1-round boundary error is well inside the tolerance.
func wfqLoadStudy() error {
	const (
		n        = 64
		k        = 16 // job sized so service time dwarfs submitter wake-up latency
		flooders = 12 // submitting goroutines per tenant: queues never run dry
		warmPer  = 8  // completions per tenant before the window opens
		// 50 full rounds of the 1+2+4 weight cycle; the ±1-round boundary
		// error at the two scrape instants is then well inside tolerance.
		wfqWindowJobs = 350
		wfqTolerance  = 0.10
		deadline      = 60 * time.Second
	)
	weights := map[string]int{"bronze": 1, "silver": 2, "gold": 4}

	eng, err := serve.New(serve.Options{
		Dim: grid.Cube(n), Kernel: green.Gaussian{Sigma: 2}, FarRate: 8,
		Workers: 1, QueueDepth: 64, Device: gpu.V100_16GB(),
		TenantWeights: weights,
	})
	if err != nil {
		return err
	}
	defer eng.Drain()

	srv, err := telemetry.ServeWith("127.0.0.1:0", telemetry.ServeConfig{
		Trace: eng.Trace(),
		Tenants: func() []telemetry.TenantSnapshot {
			snaps := eng.TenantSnapshots()
			out := make([]telemetry.TenantSnapshot, len(snaps))
			for i, s := range snaps {
				out[i] = telemetry.TenantSnapshot(s)
			}
			return out
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	box := grid.CubeAt(grid.Point{0, 0, 0}, k)
	input := grid.NewField(grid.Cube(k))
	for i := range input.Data {
		input.Data[i] = float64(i%7) - 3
	}

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		floodErr error
	)
	for tenant := range weights {
		for g := 0; g < flooders; g++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				for !stop.Load() {
					res, err := eng.Submit(context.Background(), tenant, box, input)
					if err != nil {
						mu.Lock()
						if floodErr == nil {
							floodErr = fmt.Errorf("tenant %s submit: %w", tenant, err)
						}
						mu.Unlock()
						return
					}
					res.Release()
				}
			}(tenant)
		}
	}

	// scrape reads lowcomm_serve_tenant_jobs_completed_total per tenant
	// from the live /metrics endpoint — the same series the acceptance
	// dashboards would watch.
	const series = `lowcomm_serve_tenant_jobs_completed_total{tenant="`
	scrape := func() (map[string]float64, error) {
		resp, err := http.Get(srv.ServeURL())
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		counts := make(map[string]float64)
		for _, line := range strings.Split(string(body), "\n") {
			rest, ok := strings.CutPrefix(line, series)
			if !ok {
				continue
			}
			q := strings.Index(rest, `"`)
			if q < 0 || q+2 > len(rest) {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(rest[q+2:]), 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
			counts[rest[:q]] = v
		}
		return counts, nil
	}

	fail := func(err error) error {
		stop.Store(true)
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		if floodErr != nil {
			return floodErr
		}
		return err
	}

	// Baseline: wait until every tenant has cleared warm-up, then pin the
	// window's starting counts from a live scrape.
	start := time.Now()
	var base map[string]float64
	for {
		if time.Since(start) > deadline {
			return fail(fmt.Errorf("wfq-load: warm-up incomplete after %v (counts %v)", deadline, base))
		}
		c, err := scrape()
		if err != nil {
			return fail(err)
		}
		warm := len(c) == len(weights)
		for t := range weights {
			if c[t] < warmPer {
				warm = false
			}
		}
		if warm {
			base = c
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Window: scrape until wfqWindowJobs further completions have landed.
	var final map[string]float64
	for {
		if time.Since(start) > deadline {
			return fail(fmt.Errorf("wfq-load: window incomplete after %v", deadline))
		}
		c, err := scrape()
		if err != nil {
			return fail(err)
		}
		var total float64
		for t := range weights {
			total += c[t] - base[t]
		}
		if total >= wfqWindowJobs {
			final = c
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	mu.Lock()
	if floodErr != nil {
		mu.Unlock()
		return floodErr
	}
	mu.Unlock()

	var weightSum, total float64
	for _, w := range weights {
		weightSum += float64(w)
	}
	for t := range weights {
		total += final[t] - base[t]
	}
	tenants := make([]string, 0, len(weights))
	for t := range weights {
		tenants = append(tenants, t)
	}
	sort.Slice(tenants, func(a, b int) bool { return weights[tenants[a]] < weights[tenants[b]] })

	tbl := report.New(fmt.Sprintf("weighted-fair serving under overload — 1 worker, %d flooders/tenant, %d-job window, shares scraped live from /metrics",
		flooders, int(total)),
		"tenant", "weight", "drained", "share", "want", "error")
	var checkErr error
	for _, t := range tenants {
		got := (final[t] - base[t]) / total
		want := float64(weights[t]) / weightSum
		rel := math.Abs(got-want) / want
		tbl.AddCells(t, fmt.Sprint(weights[t]), fmt.Sprint(int(final[t]-base[t])),
			fmt.Sprintf("%.3f", got), fmt.Sprintf("%.3f", want), fmt.Sprintf("%.1f%%", 100*rel))
		if rel > wfqTolerance && checkErr == nil {
			checkErr = fmt.Errorf("wfq-load: tenant %s drain share %.3f deviates %.1f%% from weighted share %.3f (tolerance %.0f%%)",
				t, got, 100*rel, want, 100*wfqTolerance)
		}
	}
	tbl.Render(os.Stdout)
	if checkErr != nil {
		return checkErr
	}
	fmt.Printf("\nall %d tenants within %.0f%% of their weighted drain share over %d completions\n",
		len(tenants), 100*wfqTolerance, int(total))
	return nil
}
