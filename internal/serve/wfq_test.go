package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"lowcomm3d/internal/grid"
)

// TestTenantStateEviction is the fail-pre-fix regression test for the
// tenant-state leak: every new tenant used to append its queue to
// e.order and e.tenants forever, so a workload of one-shot tenant IDs
// grew the dispatch scan without bound. Empty queues are now evicted
// (and recycled through the free list), so after N ephemeral tenants
// drain, the dispatch structures are empty.
func TestTenantStateEviction(t *testing.T) {
	e := testEngine(t, Options{Workers: 2, QueueDepth: 8})
	box := grid.CubeAt(grid.Point{0, 0, 0}, 4)
	in := testField(4, 1)

	const ephemeral = 100
	for i := 0; i < ephemeral; i++ {
		res, err := e.Submit(context.Background(), fmt.Sprintf("oneshot-%d", i), box, in)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}

	e.mu.Lock()
	order, tenants := len(e.order), len(e.tenants)
	e.mu.Unlock()
	if order != 0 {
		t.Errorf("e.order holds %d queues after all tenants drained, want 0", order)
	}
	if tenants != 0 {
		t.Errorf("e.tenants holds %d entries after all tenants drained, want 0", tenants)
	}
}

// TestWeightedDrainProportional is the seeded proportional-drain property
// test: with weights 1:2:4 and a single saturated worker, the dispatch
// stream over any whole number of DRR rounds splits in the weight ratio
// (within 10%), regardless of the seeded order the backlog arrived in.
// The equal-weights special case stays pinned by TestTenantFairness.
func TestWeightedDrainProportional(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{}, 4)
	e := testEngine(t, Options{
		Workers: 1, QueueDepth: 128,
		TenantWeights: map[string]int{"a": 1, "b": 2, "c": 4},
		testHook:      func(tenant string) { started <- tenant; <-release },
	})
	box := grid.CubeAt(grid.Point{0, 0, 0}, 4)
	in := testField(4, 1)

	var wg sync.WaitGroup
	submit := func(tenant string) {
		wg.Add(1)
		go func() { defer wg.Done(); e.Submit(context.Background(), tenant, box, in) }()
	}
	submit("c")
	<-started // worker pinned; the backlog below builds deterministically

	backlog := make([]string, 0, 70)
	for tenant, jobs := range map[string]int{"a": 10, "b": 20, "c": 40} {
		for i := 0; i < jobs; i++ {
			backlog = append(backlog, tenant)
		}
	}
	sort.Strings(backlog)
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(backlog), func(i, j int) { backlog[i], backlog[j] = backlog[j], backlog[i] })
	for i, tenant := range backlog {
		submit(tenant)
		depth := i + 1
		waitFor(t, func() bool { return e.QueueDepth() == depth })
	}

	// Count the first 28 dispatches — exactly 4 full DRR rounds of
	// 1+2+4 — then drain the rest.
	counts := map[string]int{}
	release <- struct{}{}
	for i := 0; i < len(backlog); i++ {
		tenant := <-started
		if i < 28 {
			counts[tenant]++
		}
		release <- struct{}{}
	}
	wg.Wait()

	want := map[string]int{"a": 4, "b": 8, "c": 16}
	for tenant, w := range want {
		got, lo, hi := counts[tenant], float64(w)*0.9, float64(w)*1.1
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("tenant %s drained %d of 28 dispatches, want within 10%% of %d", tenant, got, w)
		}
	}
}

// TestStarvationFreedom pins the DRR guarantee the weights must not
// break: a weight-1 tenant's job is dispatched after at most one full
// visit of the weight-100 flood — never pushed behind the flood's whole
// backlog.
func TestStarvationFreedom(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{}, 4)
	e := testEngine(t, Options{
		Workers: 1, QueueDepth: 128,
		TenantWeights: map[string]int{"flood": 100, "small": 1},
		testHook:      func(tenant string) { started <- tenant; <-release },
	})
	box := grid.CubeAt(grid.Point{0, 0, 0}, 4)
	in := testField(4, 1)

	var wg sync.WaitGroup
	submit := func(tenant string) {
		wg.Add(1)
		go func() { defer wg.Done(); e.Submit(context.Background(), tenant, box, in) }()
	}
	submit("flood")
	<-started // worker pinned

	const floodJobs = 120
	depth := 0
	enqueue := func(tenant string) {
		submit(tenant)
		depth++
		d := depth
		waitFor(t, func() bool { return e.QueueDepth() == d })
	}
	for i := 0; i < floodJobs/2; i++ {
		enqueue("flood")
	}
	enqueue("small")
	for i := 0; i < floodJobs/2; i++ {
		enqueue("flood")
	}

	smallAt := -1
	release <- struct{}{}
	for i := 0; i < floodJobs+1; i++ {
		if tenant := <-started; tenant == "small" {
			smallAt = i
		}
		release <- struct{}{}
	}
	wg.Wait()
	if smallAt < 0 {
		t.Fatal("weight-1 tenant never dispatched")
	}
	// One full flood visit is 100 jobs; the small tenant must ride the
	// round boundary, not wait out the flood's 120-job backlog.
	if smallAt > 100 {
		t.Errorf("weight-1 job dispatched at position %d, want ≤ 100 (one flood visit)", smallAt)
	}
}
