package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

func testField(k int, seed int64) *grid.Field {
	f := grid.NewField(grid.Cube(k))
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func testEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Dim.Len() == 0 {
		opts.Dim = grid.Cube(16)
	}
	if opts.Kernel == nil {
		opts.Kernel = green.Gaussian{Sigma: 1.5}
	}
	if opts.FarRate == 0 {
		opts.FarRate = 8
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Drain)
	devs := opts.Devices
	if len(devs) == 0 && opts.Device != nil {
		devs = []*gpu.Device{opts.Device}
	}
	engineDevices.Store(e, devs)
	t.Cleanup(func() { engineDevices.Delete(e) })
	return e
}

// sampleDiff describes how got, a served result, differs from want, a
// direct pipeline's result for the same box, or is "" when it does not:
// both trees must hold the same cells, in any order (a served tree may list
// its cells in the order of the tree it was translated from), and each
// cell's lattice the same samples, bit for bit.
func sampleDiff(got, want *sample.Compressed) string {
	if len(got.Tree.Cells) != len(want.Tree.Cells) {
		return fmt.Sprintf("served %d cells, direct %d", len(got.Tree.Cells), len(want.Tree.Cells))
	}
	direct := map[octree.Cell][]float64{}
	for i, c := range want.Tree.Cells {
		direct[c] = want.AppendLattice(nil, i)
	}
	for ci, c := range got.Tree.Cells {
		w, ok := direct[c]
		if !ok {
			return fmt.Sprintf("served cell %v at rate %d is not in the direct tree", c.Box, c.Rate)
		}
		for i, v := range got.AppendLattice(nil, ci) {
			if math.Float64bits(v) != math.Float64bits(w[i]) {
				return fmt.Sprintf("cell %v sample %d: served %g, direct %g", c.Box, i, v, w[i])
			}
		}
	}
	return ""
}

// TestSubmitMatchesDirectPipeline pins correctness: a served job returns
// exactly what a directly-constructed conv.Local computes for the same
// box, tree policy, and kernel.
func TestSubmitMatchesDirectPipeline(t *testing.T) {
	dim := grid.Cube(16)
	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	in := testField(4, 3)
	e := testEngine(t, Options{Dim: dim, Workers: 2})

	res, err := e.Submit(context.Background(), "a", box, in)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()

	tree, err := sample.DefaultPolicy(box, 8).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	local, err := conv.NewLocal(dim, box, tree, conv.KernelPointwise(dim, green.Gaussian{Sigma: 1.5}), conv.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := local.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if d := sampleDiff(res.Output, want); d != "" {
		t.Fatal(d)
	}
	if res.Stats.SampleCount != len(want.Samples) {
		t.Errorf("Stats.SampleCount = %d, want %d", res.Stats.SampleCount, len(want.Samples))
	}
}

// TestWarmSubmitZeroAllocs is the tentpole acceptance test: once a shape
// has been served, Submit borrows the cached placed box, the worker's
// runner and a recycled output arena — zero heap allocations per warm job,
// measured across the submitting and worker goroutines. It holds for one
// box and for a cycle over four boxes on one worker, which switches the
// runner's buffer between boxes on every job, as the served workloads do.
// Job tracing is ON: the lifecycle timeline (pooled event rings, static
// labels) must not cost the warm path a single allocation.
func TestWarmSubmitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the 0-alloc claim is asserted by the non-race suite and BenchmarkServeSteadyState")
	}
	dim := grid.Cube(32)
	in := testField(8, 7)
	for _, boxes := range [][]grid.Box{
		{grid.CubeAt(grid.Point{8, 8, 8}, 8)},
		{grid.CubeAt(grid.Point{0, 0, 0}, 8), grid.CubeAt(grid.Point{8, 8, 8}, 8),
			grid.CubeAt(grid.Point{16, 0, 8}, 8), grid.CubeAt(grid.Point{24, 16, 0}, 8)},
	} {
		e := testEngine(t, Options{
			Dim: dim, Workers: 1, Device: gpu.V100_16GB(),
			Jobs:          jobtrace.NewCollector(),
			TenantWeights: map[string]int{"tenant": 3}, // weights must not cost the warm path an alloc
		})
		cycle := func() {
			for _, box := range boxes {
				res, err := e.Submit(context.Background(), "tenant", box, in)
				if err != nil {
					t.Fatal(err)
				}
				res.Release()
			}
		}
		for i := 0; i < 5; i++ { // warm plans, pools, tenant queue, task pool
			cycle()
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("warm Submit over %d boxes allocates %v objects per cycle, want 0", len(boxes), allocs)
		}
		for _, ds := range e.FleetStatus() {
			if ds.Used != 0 {
				t.Errorf("device %s ledger holds %d bytes after all jobs released", ds.Name, ds.Used)
			}
		}
	}
}

// TestOverloadQueueFull pins bounded queuing: with one worker held busy
// and the queue at capacity, Submit rejects immediately with a typed
// *OverloadError wrapping ErrOverloaded and a positive retry hint.
func TestOverloadQueueFull(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	e := testEngine(t, Options{
		Workers: 1, QueueDepth: 1,
		testHook: func(tenant string) { started <- tenant; <-release },
	})
	box := grid.CubeAt(grid.Point{0, 0, 0}, 4)
	in := testField(4, 1)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); e.Submit(context.Background(), "a", box, in) }()
	<-started // worker now blocked inside job 1
	go func() { defer wg.Done(); e.Submit(context.Background(), "a", box, in) }()
	waitFor(t, func() bool { return e.QueueDepth() == 1 })

	_, err := e.Submit(context.Background(), "a", box, in)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err %T does not unwrap to *OverloadError", err)
	}
	if oe.Reason != "queue full" {
		t.Errorf("Reason = %q, want %q", oe.Reason, "queue full")
	}
	if oe.QueueDepth != 1 {
		t.Errorf("QueueDepth = %d, want 1", oe.QueueDepth)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	close(release)
	wg.Wait()
	tr := e.Trace()
	if got := tr.CounterValue("serve.rejects_queue_full"); got != 1 {
		t.Errorf("serve.rejects_queue_full = %d, want 1", got)
	}
	if got := tr.CounterValue("serve.jobs_rejected"); got != 1 {
		t.Errorf("serve.jobs_rejected = %d, want 1", got)
	}
}

// TestOverloadDeviceMemory pins the admission ledger: a job whose modeled
// footprint exceeds free device memory is rejected before queuing, the
// error chain exposes both ErrOverloaded and gpu.ErrOutOfMemory, and the
// ledger returns to empty once accepted jobs finish.
func TestOverloadDeviceMemory(t *testing.T) {
	dim := grid.Cube(16)
	tiny := &gpu.Device{Name: "tiny", Capacity: 1024} // smaller than any job
	e := testEngine(t, Options{Dim: dim, Workers: 1, Device: tiny})
	box := grid.CubeAt(grid.Point{0, 0, 0}, 4)
	_, err := e.Submit(context.Background(), "a", box, testField(4, 1))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("err = %v, does not wrap gpu.ErrOutOfMemory", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "device memory" {
		t.Fatalf("err = %v, want *OverloadError with device memory reason", err)
	}
	if got := e.Trace().CounterValue("serve.rejects_memory"); got != 1 {
		t.Errorf("serve.rejects_memory = %d, want 1", got)
	}
	if used := tiny.Used(); used != 0 {
		t.Errorf("rejected job left %d bytes charged", used)
	}
}

// TestTenantFairness pins round-robin dispatch: with one worker and a
// backlog of 3 jobs from tenant a and 2 from tenant b, execution
// alternates a, b, a, b, a — tenant a's deeper queue cannot starve b.
func TestTenantFairness(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{}, 8)
	e := testEngine(t, Options{
		Workers: 1, QueueDepth: 8,
		testHook: func(tenant string) { started <- tenant; <-release },
	})
	box := grid.CubeAt(grid.Point{0, 0, 0}, 4)
	in := testField(4, 1)

	var wg sync.WaitGroup
	submit := func(tenant string) {
		wg.Add(1)
		go func() { defer wg.Done(); e.Submit(context.Background(), tenant, box, in) }()
	}
	submit("a")
	first := <-started // worker busy on a's first job; queue is empty
	if first != "a" {
		t.Fatalf("first job from tenant %q, want a", first)
	}
	// Build the backlog deterministically: wait for each job to be
	// admitted before submitting the next.
	for i, tenant := range []string{"a", "a", "a", "b", "b"} {
		submit(tenant)
		depth := i + 1
		waitFor(t, func() bool { return e.QueueDepth() == depth })
	}
	var order []string
	release <- struct{}{} // finish a's first job
	for i := 0; i < 5; i++ {
		order = append(order, <-started)
		release <- struct{}{}
	}
	wg.Wait()
	want := []string{"a", "b", "a", "b", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestPlanSetSharedAcrossBoxes pins the pipeline cache over the engine's
// one plan set: distinct boxes get distinct pipelines, repeat submissions
// hit the pipeline cache, and the plan counters read one build (in New)
// and one hit per executed job.
func TestPlanSetSharedAcrossBoxes(t *testing.T) {
	e := testEngine(t, Options{Workers: 1})
	in := testField(4, 9)
	boxes := []grid.Box{
		grid.CubeAt(grid.Point{0, 0, 0}, 4),
		grid.CubeAt(grid.Point{4, 0, 0}, 4),
		grid.CubeAt(grid.Point{8, 8, 8}, 4),
	}
	for _, b := range boxes {
		for i := 0; i < 2; i++ {
			res, err := e.Submit(context.Background(), "a", b, in)
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
	}
	if got := e.pipes.len(); got != len(boxes) {
		t.Errorf("pipeline cache holds %d pipelines, want %d", got, len(boxes))
	}
	tr := e.Trace()
	if misses := tr.CounterValue("serve.plan_cache_misses"); misses != 1 {
		t.Errorf("serve.plan_cache_misses = %d, want 1", misses)
	}
	if hits := tr.CounterValue("serve.plan_cache_hits"); hits != 6 {
		t.Errorf("serve.plan_cache_hits = %d, want 6", hits)
	}
}

// TestPlanSetSharedAcrossSizes pins that the engine's one plan set backs
// every sub-domain size at once: concurrent submitters interleave k = 4
// and k = 8 boxes, and each output is byte-identical to a fresh
// conv.NewLocal run on the same box. Run under -race via make verify.
func TestPlanSetSharedAcrossSizes(t *testing.T) {
	dim := grid.Cube(16)
	kernel := green.Gaussian{Sigma: 1.5}
	e := testEngine(t, Options{Dim: dim, Kernel: kernel, Workers: 2})
	type job struct {
		box  grid.Box
		in   *grid.Field
		want *sample.Compressed
	}
	var jobs []job
	for i, b := range []grid.Box{
		grid.CubeAt(grid.Point{0, 0, 0}, 4),
		grid.CubeAt(grid.Point{8, 8, 0}, 8),
		grid.CubeAt(grid.Point{12, 4, 8}, 4),
		grid.CubeAt(grid.Point{0, 8, 8}, 8),
	} {
		k := b.Size()[0]
		in := testField(k, int64(20+i))
		tree, err := sample.DefaultPolicy(b, 8).Tree(dim)
		if err != nil {
			t.Fatal(err)
		}
		local, err := conv.NewLocal(dim, b, tree, conv.KernelPointwise(dim, kernel), conv.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := local.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{box: b, in: in, want: want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				j := jobs[(g+i)%len(jobs)] // sizes alternate 4, 8, 4, 8
				res, err := e.Submit(context.Background(), "a", j.box, j.in)
				if err != nil {
					t.Error(err)
					return
				}
				if d := sampleDiff(res.Output, j.want); d != "" {
					t.Errorf("box %v: %s", j.box, d)
				}
				res.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestDrain pins graceful shutdown: concurrent submitters either complete
// normally or are refused with ErrClosed — never stranded — and Submit
// after Drain always refuses. Run under -race via make verify.
func TestDrain(t *testing.T) {
	e := testEngine(t, Options{Workers: 2, QueueDepth: 32})
	box := grid.CubeAt(grid.Point{0, 0, 0}, 4)
	in := testField(4, 5)

	const jobs = 16
	var completed, refused int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Submit(context.Background(), "a", box, in)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				res.Release()
				completed++
			case errors.Is(err, ErrClosed):
				refused++
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	e.Drain()
	wg.Wait()
	if completed+refused != jobs {
		t.Fatalf("completed %d + refused %d != %d submitted", completed, refused, jobs)
	}
	if _, err := e.Submit(context.Background(), "a", box, in); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Drain: err = %v, want ErrClosed", err)
	}
	e.Drain() // idempotent
	done := e.Trace().CounterValue("serve.jobs_completed")
	if done != completed {
		t.Errorf("serve.jobs_completed = %d, %d results delivered", done, completed)
	}
}

// TestSubmitValidation pins the cheap pre-admission checks.
func TestSubmitValidation(t *testing.T) {
	e := testEngine(t, Options{Workers: 1})
	in := testField(4, 1)
	if _, err := e.Submit(context.Background(), "a", grid.BoxAt(grid.Point{0, 0, 0}, 4, 4, 2), in); err == nil {
		t.Error("non-cubic box accepted")
	}
	if _, err := e.Submit(context.Background(), "a", grid.CubeAt(grid.Point{14, 0, 0}, 4), in); err == nil {
		t.Error("out-of-grid box accepted")
	}
	if _, err := e.Submit(context.Background(), "a", grid.CubeAt(grid.Point{0, 0, 0}, 8), in); err == nil {
		t.Error("input/box size mismatch accepted")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for condition")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitContextCancelQueued is the cancellation regression test: a
// cancelled queued job is removed without running, releases its ledger
// reservation, and — the part tenants feel — frees its queue slot for a
// waiting tenant while the engine is saturated.
func TestSubmitContextCancelQueued(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	dev := gpu.V100_16GB()
	e := testEngine(t, Options{
		Workers: 1, QueueDepth: 1, Device: dev,
		testHook: func(tenant string) { started <- tenant; <-release },
	})
	box := grid.CubeAt(grid.Point{0, 0, 0}, 4)
	in := testField(4, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); e.Submit(context.Background(), "a", box, in) }()
	<-started // worker pinned inside a's first job
	usedBusy := dev.Used()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	wg.Add(1)
	go func() { defer wg.Done(); _, err := e.Submit(ctx, "a", box, in); errc <- err }()
	waitFor(t, func() bool { return e.QueueDepth() == 1 })

	// Queue full: tenant b is shut out.
	if _, err := e.Submit(context.Background(), "b", box, in); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full submit: err = %v, want ErrOverloaded", err)
	}

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: err = %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return e.QueueDepth() == 0 })
	if got := dev.Used(); got != usedBusy {
		t.Errorf("ledger holds %d bytes after cancel, want %d (running job only)", got, usedBusy)
	}

	// The slot the cancelled job held is immediately available to b.
	wg.Add(1)
	go func() { defer wg.Done(); e.Submit(context.Background(), "b", box, in) }()
	waitFor(t, func() bool { return e.QueueDepth() == 1 })
	close(release)
	wg.Wait()

	if got := e.Trace().CounterValue("serve.jobs_cancelled"); got != 1 {
		t.Errorf("serve.jobs_cancelled = %d, want 1", got)
	}
	if got := e.Trace().CounterValue("serve.jobs_completed"); got != 2 {
		t.Errorf("serve.jobs_completed = %d, want 2 (cancelled job never ran)", got)
	}
}

// TestSubmitContextExpiredBeforeDequeue pins the worker-side guard: a
// task whose deadline passed while queued is skipped by the worker (no
// pipeline work, ledger released) and returns the context error.
func TestSubmitContextExpiredBeforeDequeue(t *testing.T) {
	e := testEngine(t, Options{Workers: 1, QueueDepth: 4})
	box := grid.CubeAt(grid.Point{0, 0, 0}, 4)
	in := testField(4, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before admission
	if _, err := e.Submit(ctx, "a", box, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled submit: err = %v, want context.Canceled", err)
	}
	// Deadline in the past behaves identically.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := e.Submit(dctx, "a", box, in); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired submit: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestJobTimelinePhaseDecomposition pins the tenant SLO breakdown: with
// tracing on, every finished job's per-tenant phase histograms (place,
// queue, compute, stream) partition its end-to-end latency exactly, the
// collector's e2e sum stays within tolerance of externally measured
// latency, and each timeline carries the full request lifecycle.
func TestJobTimelinePhaseDecomposition(t *testing.T) {
	dim := grid.Cube(32)
	box := grid.CubeAt(grid.Point{8, 8, 8}, 8)
	in := testField(8, 11)
	col := jobtrace.NewCollector()
	e := testEngine(t, Options{Dim: dim, Workers: 2, Device: gpu.V100_16GB(), Jobs: col})

	const perTenant = 4
	var measured time.Duration
	for i := 0; i < perTenant; i++ {
		for _, tenant := range []string{"acme", "beta"} {
			start := time.Now()
			res, err := e.Submit(context.Background(), tenant, box, in)
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
			measured += time.Since(start)
		}
	}

	phases := col.PhaseSnapshots()
	if len(phases) != 2 {
		t.Fatalf("PhaseSnapshots has %d tenants, want 2: %+v", len(phases), phases)
	}
	var e2eSum, partSum int64
	for _, p := range phases {
		if p.E2E.Count != perTenant {
			t.Errorf("tenant %s e2e count = %d, want %d", p.Tenant, p.E2E.Count, perTenant)
		}
		e2eSum += p.E2E.SumNs
		partSum += p.Place.SumNs + p.Queue.SumNs + p.Compute.SumNs + p.Stream.SumNs
	}
	if e2eSum != partSum {
		t.Errorf("phase sums leak: e2e %dns, place+queue+compute+stream %dns", e2eSum, partSum)
	}
	if e2eSum <= 0 || time.Duration(e2eSum) > measured {
		t.Errorf("collector e2e %v outside (0, measured %v]", time.Duration(e2eSum), measured)
	}
	if gap := measured - time.Duration(e2eSum); gap > 500*time.Millisecond {
		t.Errorf("collector e2e %v trails measured %v by %v", time.Duration(e2eSum), measured, gap)
	}

	done := 0
	for _, js := range col.Jobs() {
		if !js.Done {
			continue
		}
		done++
		kinds := map[string]bool{}
		for _, ev := range js.Events {
			kinds[ev.Kind] = true
		}
		for _, k := range []string{"admit", "place", "queue", "dequeue", "stage", "complete"} {
			if !kinds[k] {
				t.Errorf("job %d timeline missing %q (kinds %v)", js.TraceID, k, kinds)
			}
		}
		if js.Phases == nil {
			t.Errorf("job %d finished without a phase decomposition", js.TraceID)
		}
	}
	if done != 2*perTenant {
		t.Errorf("collector retains %d finished jobs, want %d", done, 2*perTenant)
	}
}
