// External test package: serve imports telemetry, so the scrape-level
// acceptance test (real engine -> collector -> HTTP exposition) lives
// outside package telemetry to avoid the import cycle.
package telemetry_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs/jobtrace"
	"lowcomm3d/internal/serve"
	"lowcomm3d/internal/telemetry"
)

func traceTestField(k int, seed int64) *grid.Field {
	f := grid.NewField(grid.Cube(k))
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// scrapeSums extracts lowcomm_job_phase_seconds _sum and _count samples
// keyed by {tenant, phase} from one exposition document.
func scrapeSums(t *testing.T, text string) (sums, counts map[[2]string]float64) {
	t.Helper()
	sums = map[[2]string]float64{}
	counts = map[[2]string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		var dst map[[2]string]float64
		switch {
		case strings.HasPrefix(line, "lowcomm_job_phase_seconds_sum{"):
			dst = sums
		case strings.HasPrefix(line, "lowcomm_job_phase_seconds_count{"):
			dst = counts
		default:
			continue
		}
		open, close := strings.Index(line, "{"), strings.Index(line, "}")
		var tenant, phase string
		for _, kv := range strings.Split(line[open+1:close], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				t.Fatalf("bad label %q in %q", kv, line)
			}
			uq, err := strconv.Unquote(v)
			if err != nil {
				t.Fatalf("bad label value %q: %v", v, err)
			}
			switch k {
			case "tenant":
				tenant = uq
			case "phase":
				phase = uq
			}
		}
		val, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		dst[[2]string{tenant, phase}] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sums, counts
}

// TestScrapedPhaseSumsMatchMeasuredLatency is the acceptance check for
// the tenant SLO breakdown: run real jobs, scrape /metrics over HTTP,
// and require (a) the four phase sums to reproduce the e2e sum exactly
// (the jobtrace partition, surviving the exposition round trip) and
// (b) the scraped e2e sum to agree with wall-clock latency measured
// around Submit, within a scheduling-noise tolerance.
func TestScrapedPhaseSumsMatchMeasuredLatency(t *testing.T) {
	col := jobtrace.NewCollector()
	eng, err := serve.New(serve.Options{
		Dim: grid.Cube(16), Kernel: green.Gaussian{Sigma: 1.5},
		FarRate: 8, Workers: 2, Device: gpu.V100_16GB(), Jobs: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()

	const perTenant = 4
	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	in := traceTestField(4, 7)
	measured := map[string]time.Duration{}
	for _, tenant := range []string{"acme", "zeta"} {
		for i := 0; i < perTenant; i++ {
			start := time.Now()
			res, err := eng.Submit(context.Background(), tenant, box, in)
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
			measured[tenant] += time.Since(start)
		}
	}

	srv, err := telemetry.ServeWith("127.0.0.1:0", telemetry.ServeConfig{
		Trace: eng.Trace(), Jobs: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	sums, counts := scrapeSums(t, body)
	for _, tenant := range []string{"acme", "zeta"} {
		e2e := sums[[2]string{tenant, "e2e"}]
		if e2e <= 0 {
			t.Fatalf("tenant %s: scraped e2e sum = %v, want > 0", tenant, e2e)
		}
		var parts float64
		for _, phase := range []string{"place", "queue", "compute", "stream"} {
			parts += sums[[2]string{tenant, phase}]
			if c := counts[[2]string{tenant, phase}]; c != perTenant {
				t.Fatalf("tenant %s phase %s count = %v, want %d", tenant, phase, c, perTenant)
			}
		}
		if diff := parts - e2e; diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("tenant %s: phase sums %v != e2e %v", tenant, parts, e2e)
		}
		// The engine's internal e2e excludes Submit's entry/exit overhead,
		// so it is bounded by the wall measurement; the slack covers
		// scheduler wakeup noise on a loaded CI box.
		wall := measured[tenant].Seconds()
		if e2e > wall+0.001 {
			t.Fatalf("tenant %s: scraped e2e %vs exceeds wall measurement %vs", tenant, e2e, wall)
		}
		if e2e < wall-0.5 {
			t.Fatalf("tenant %s: scraped e2e %vs implausibly below wall %vs", tenant, e2e, wall)
		}
	}
}

// TestJobsEndpoints exercises the timeline HTTP surface: the index, one
// job by TraceID, the Chrome-trace export, and the error paths.
func TestJobsEndpoints(t *testing.T) {
	col := jobtrace.NewCollector()
	eng, err := serve.New(serve.Options{
		Dim: grid.Cube(16), Kernel: green.Gaussian{Sigma: 1.5},
		FarRate: 8, Workers: 1, Device: gpu.V100_16GB(), Jobs: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()
	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	res, err := eng.Submit(context.Background(), "acme", box, traceTestField(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	srv, err := telemetry.ServeWith("127.0.0.1:0", telemetry.ServeConfig{Jobs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := httpGet(t, base+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("/jobs = %d", code)
	}
	var index []jobtrace.JobSnapshot
	if err := json.Unmarshal([]byte(body), &index); err != nil {
		t.Fatalf("/jobs is not a JSON snapshot list: %v", err)
	}
	if len(index) != 1 || index[0].Tenant != "acme" || !index[0].Done {
		t.Fatalf("/jobs index = %+v, want one finished acme job", index)
	}

	code, body = httpGet(t, fmt.Sprintf("%s/jobs/%d", base, index[0].TraceID))
	if code != http.StatusOK {
		t.Fatalf("/jobs/{id} = %d", code)
	}
	var one jobtrace.JobSnapshot
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	if one.TraceID != index[0].TraceID || len(one.Events) == 0 {
		t.Fatalf("/jobs/{id} returned %+v", one)
	}

	if code, _ = httpGet(t, base+"/jobs/999999999"); code != http.StatusNotFound {
		t.Fatalf("unknown trace id = %d, want 404", code)
	}
	if code, _ = httpGet(t, base+"/jobs/nope"); code != http.StatusBadRequest {
		t.Fatalf("malformed trace id = %d, want 400", code)
	}

	code, body = httpGet(t, base+"/jobs/trace")
	if code != http.StatusOK {
		t.Fatalf("/jobs/trace = %d", code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("/jobs/trace is not Chrome trace JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("/jobs/trace has no trace events")
	}
}

// TestScrapedTenantSharesMatchEngine is the live-scrape check of the
// weighted-fair accounting: a weighted engine runs a fixed job list to
// completion, and the serve.tenant_* series read back over HTTP must equal
// the engine's own snapshot. (That the shares follow the weights under
// overload is serve.TestWeightedDrainProportional's claim, not this one's.)
func TestScrapedTenantSharesMatchEngine(t *testing.T) {
	jobs := map[string]int{"bronze": 2, "silver": 3, "gold": 5}
	eng, err := serve.New(serve.Options{
		Dim: grid.Cube(16), Kernel: green.Gaussian{Sigma: 1.5},
		FarRate: 8, Workers: 1, Device: gpu.V100_16GB(),
		TenantWeights: map[string]int{"bronze": 1, "silver": 2, "gold": 4},
	})
	if err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	defer srv.Close()

	box := grid.CubeAt(grid.Point{4, 4, 4}, 4)
	in := traceTestField(4, 11)
	for tenant, n := range jobs {
		for i := 0; i < n; i++ {
			res, err := eng.Submit(context.Background(), tenant, box, in)
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
	}

	got := scrape(t, srv)
	snaps := eng.TenantSnapshots()
	if len(snaps) != len(jobs) {
		t.Fatalf("engine reports %d tenants, want %d", len(snaps), len(jobs))
	}
	for _, s := range snaps {
		if s.Completed != uint64(jobs[s.Tenant]) {
			t.Errorf("tenant %s: engine completed %d, want %d", s.Tenant, s.Completed, jobs[s.Tenant])
		}
		label := fmt.Sprintf("{tenant=%q}", s.Tenant)
		for series, want := range map[string]float64{
			"lowcomm_serve_tenant_weight":               float64(s.Weight),
			"lowcomm_serve_tenant_jobs_completed_total": float64(s.Completed),
			"lowcomm_serve_tenant_drain_share":          s.DrainShare,
		} {
			if v, ok := got[series+label]; !ok || v != want {
				t.Errorf("scraped %s%s = %v (present %v), engine says %v", series, label, v, ok, want)
			}
		}
	}
}
