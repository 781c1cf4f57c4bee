package telemetry

import (
	"bufio"
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/obs/jobtrace"
)

func TestMetricNameStable(t *testing.T) {
	// The exported names are a contract: dashboards and the MAP.md rows
	// reference them. A rename here is a breaking change.
	cases := []struct {
		obsName string
		counter bool
		want    string
	}{
		{"cluster.bytes", true, "lowcomm_cluster_bytes_total"},
		{"cluster.collective.bytes", true, "lowcomm_cluster_collective_bytes_total"},
		{"cluster.collective.rounds", true, "lowcomm_cluster_collective_rounds_total"},
		{"cluster.alltoall_seconds", false, "lowcomm_cluster_alltoall_seconds"},
		{"conv.peak_bytes", false, "lowcomm_conv_peak_bytes"},
		{"massif.iteration_seconds", false, "lowcomm_massif_iteration_seconds"},
		{"supervise.compute_seconds", false, "lowcomm_supervise_compute_seconds"},
		{"weird-name with spaces!", true, "lowcomm_weird_name_with_spaces__total"},
	}
	for _, c := range cases {
		if got := MetricName(c.obsName, c.counter); got != c.want {
			t.Errorf("MetricName(%q, %v) = %q, want %q", c.obsName, c.counter, got, c.want)
		}
	}
}

func TestDocumentedMetricsSorted(t *testing.T) {
	names := DocumentedMetrics()
	if len(names) < 25 {
		t.Fatalf("only %d documented metrics; the HELP catalogue shrank", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("DocumentedMetrics not sorted: %q after %q", names[i], names[i-1])
		}
	}
	for _, required := range []string{"cluster.collective.bytes", "massif.iteration_seconds", "conv.stage_a_seconds", "fft.sweep_x_seconds"} {
		found := false
		for _, n := range names {
			if n == required {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("documented metrics missing %q", required)
		}
	}
}

var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)
)

// lintExposition parses Prometheus text format 0.0.4 and fails on the
// classes of malformation a real scraper rejects: samples without a TYPE
// header, duplicate series, duplicate HELP/TYPE, or bad line syntax.
func lintExposition(t *testing.T, text string) (families map[string]string, series map[string]float64) {
	t.Helper()
	families = map[string]string{} // name -> type
	series = map[string]float64{}  // name{labels} -> value
	helpSeen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || !promNameRe.MatchString(parts[0]) || parts[1] == "" {
				t.Fatalf("bad HELP line: %q", line)
			}
			if helpSeen[parts[0]] {
				t.Fatalf("duplicate HELP for %s", parts[0])
			}
			helpSeen[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 || !promNameRe.MatchString(parts[0]) {
				t.Fatalf("bad TYPE line: %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("invalid metric type in %q", line)
			}
			if _, dup := families[parts[0]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[0])
			}
			families[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("bad sample line: %q", line)
		}
		name := m[1]
		// Histogram child series attribute to their family name.
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && families[base] == "histogram" {
				fam = base
			}
		}
		if _, ok := families[fam]; !ok {
			t.Fatalf("sample %q has no TYPE header", line)
		}
		key := name + m[2]
		if _, dup := series[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(m[3], "+"), 64)
		if err != nil && m[3] != "+Inf" {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		series[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families, series
}

func TestWriteTraceMetricsExposition(t *testing.T) {
	tr := obs.New()
	tr.Counter("cluster.bytes").Add(4096)
	tr.Counter("cluster.collective.bytes").Add(8192)
	tr.Gauge("conv.peak_bytes").Max(1 << 16)
	h := tr.Histogram("cluster.alltoall_seconds")
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second)

	var buf bytes.Buffer
	if err := WriteTraceMetrics(&buf, tr); err != nil {
		t.Fatal(err)
	}
	families, series := lintExposition(t, buf.String())

	if families["lowcomm_cluster_bytes_total"] != "counter" {
		t.Fatalf("cluster.bytes family = %q, want counter", families["lowcomm_cluster_bytes_total"])
	}
	if families["lowcomm_conv_peak_bytes"] != "gauge" {
		t.Fatalf("conv.peak_bytes family = %q, want gauge", families["lowcomm_conv_peak_bytes"])
	}
	if families["lowcomm_cluster_alltoall_seconds"] != "histogram" {
		t.Fatalf("alltoall family = %q, want histogram", families["lowcomm_cluster_alltoall_seconds"])
	}
	if v := series["lowcomm_cluster_bytes_total"]; v != 4096 {
		t.Fatalf("cluster bytes = %v, want 4096", v)
	}
	if v := series["lowcomm_cluster_alltoall_seconds_count"]; v != 3 {
		t.Fatalf("histogram count = %v, want 3", v)
	}
	wantSum := (time.Millisecond + 2*time.Millisecond + time.Second).Seconds()
	if v := series["lowcomm_cluster_alltoall_seconds_sum"]; v < wantSum*0.999 || v > wantSum*1.001 {
		t.Fatalf("histogram sum = %v s, want ~%v s", v, wantSum)
	}
	if v := series[`lowcomm_cluster_alltoall_seconds_bucket{le="+Inf"}`]; v != 3 {
		t.Fatalf("+Inf bucket = %v, want 3 (must equal _count)", v)
	}
	// Buckets are cumulative: extract them in file order and check.
	var last float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "lowcomm_cluster_alltoall_seconds_bucket") && !strings.Contains(line, "+Inf") {
			v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < last {
				t.Fatalf("buckets not cumulative: %v after %v", v, last)
			}
			last = v
		}
	}
	if last != 3 {
		t.Fatalf("final finite bucket = %v, want all 3 observations below 2s", last)
	}
}

func TestWriteTraceMetricsNilTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil trace wrote %q", buf.String())
	}
}

func TestWriteTraceMetricsCollision(t *testing.T) {
	// Two obs names that sanitise to the same exported name must not emit a
	// duplicate family — the first registration wins.
	tr := obs.New()
	tr.Counter("a.b").Add(1)
	tr.Counter("a_b").Add(2)
	var buf bytes.Buffer
	if err := WriteTraceMetrics(&buf, tr); err != nil {
		t.Fatal(err)
	}
	_, series := lintExposition(t, buf.String())
	if v := series["lowcomm_a_b_total"]; v != 1 {
		t.Fatalf("collided series = %v, want first registration (1)", v)
	}
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRuntimeMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	families, series := lintExposition(t, buf.String())
	if families["go_goroutines"] != "gauge" {
		t.Fatalf("go_goroutines family = %q", families["go_goroutines"])
	}
	if families["go_memstats_alloc_bytes_total"] != "counter" {
		t.Fatalf("alloc total family = %q", families["go_memstats_alloc_bytes_total"])
	}
	if series["go_goroutines"] < 1 {
		t.Fatalf("go_goroutines = %v", series["go_goroutines"])
	}
}

// TestCombinedExpositionNoDuplicates mirrors what /metrics serves: trace
// metrics followed by runtime metrics must lint as one document.
func TestCombinedExpositionNoDuplicates(t *testing.T) {
	tr := obs.New()
	tr.Counter("cluster.bytes").Add(1)
	tr.Histogram("fft.sweep_x_seconds").Observe(time.Millisecond)
	var buf bytes.Buffer
	if err := WriteTraceMetrics(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteRuntimeMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, buf.String())
}

// TestJobTraceMetricsDocumented pins the tracing additions to the HELP
// catalogue: the typed placement-reject counter and the job-phase family
// must ship with model-anchored documentation.
func TestJobTraceMetricsDocumented(t *testing.T) {
	help, ok := helpText["fleet.placement_rejects"]
	if !ok || strings.TrimSpace(help) == "" {
		t.Fatalf("fleet.placement_rejects HELP missing or empty: %q", help)
	}
	for _, reason := range []string{"tried", "dead", "probation", "suspect", "no-fit", "memory", "queue-full"} {
		if !strings.Contains(help, reason) {
			t.Errorf("placement_rejects HELP does not document reject reason %q", reason)
		}
	}
	if strings.TrimSpace(jobPhaseHelp) == "" {
		t.Fatal("job phase family HELP is empty")
	}
	for _, phase := range []string{"e2e", "place", "queue", "compute", "stream"} {
		if !strings.Contains(jobPhaseHelp, phase) {
			t.Errorf("job phase HELP does not document phase %q", phase)
		}
	}
	if jobPhaseName != "lowcomm_job_phase_seconds" {
		t.Fatalf("job phase family renamed to %q; dashboards reference lowcomm_job_phase_seconds", jobPhaseName)
	}
}

// TestWriteJobPhaseMetricsExposition drives real jobs through a collector
// and lints the labeled histogram family, checking the partition contract
// at the exposition level: per tenant, the four phase sums add up to the
// e2e sum.
func TestWriteJobPhaseMetricsExposition(t *testing.T) {
	col := jobtrace.NewCollector()
	for _, tenant := range []string{"acme", "zeta"} {
		for i := 0; i < 3; i++ {
			j := col.Start(tenant)
			j.Event(jobtrace.KindAdmit, -1, "", 0)
			j.Place(0, 1.5, nil)
			j.Event(jobtrace.KindQueue, 0, "", 1)
			time.Sleep(time.Millisecond)
			j.Event(jobtrace.KindDequeue, 0, "", 0)
			time.Sleep(time.Millisecond)
			j.Event(jobtrace.KindComplete, 0, "", 0)
			col.Finish(j)
		}
	}
	var buf bytes.Buffer
	if err := WriteJobPhaseMetrics(&buf, col); err != nil {
		t.Fatal(err)
	}
	families, series := lintExposition(t, buf.String())
	if families[jobPhaseName] != "histogram" {
		t.Fatalf("job phase family = %q, want histogram", families[jobPhaseName])
	}
	for _, tenant := range []string{"acme", "zeta"} {
		e2e := series[jobPhaseName+`_sum{tenant="`+tenant+`",phase="e2e"}`]
		if e2e <= 0 {
			t.Fatalf("tenant %s: e2e sum = %v, want > 0", tenant, e2e)
		}
		var parts float64
		for _, phase := range []string{"place", "queue", "compute", "stream"} {
			key := jobPhaseName + `_sum{tenant="` + tenant + `",phase="` + phase + `"}`
			parts += series[key]
			if c := series[jobPhaseName+`_count{tenant="`+tenant+`",phase="`+phase+`"}`]; c != 3 {
				t.Fatalf("tenant %s phase %s count = %v, want 3", tenant, phase, c)
			}
		}
		if diff := parts - e2e; diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("tenant %s: phase sums %v != e2e sum %v; the partition leaked", tenant, parts, e2e)
		}
	}
}

// TestWriteJobPhaseMetricsNil checks the off switch: no collector (or an
// idle one) must write nothing, keeping /metrics valid when tracing is
// disabled.
func TestWriteJobPhaseMetricsNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJobPhaseMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteJobPhaseMetrics(&buf, jobtrace.NewCollector()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("idle collectors wrote %q", buf.String())
	}
}

// TestWriteTenantMetricsExposition lints the {tenant}-labeled
// weighted-fair dispatch families: every serve.tenant_* series present
// per tenant with the right type and value, drain shares as written.
func TestWriteTenantMetricsExposition(t *testing.T) {
	tenants := []TenantSnapshot{
		{Tenant: "acme", Weight: 4, Queued: 2, Submitted: 10, Completed: 8, DrainShare: 0.8},
		{Tenant: "zeta", Weight: 1, Queued: 0, Submitted: 3, Completed: 2, DrainShare: 0.2},
	}
	var buf bytes.Buffer
	if err := WriteTenantMetrics(&buf, tenants); err != nil {
		t.Fatal(err)
	}
	families, series := lintExposition(t, buf.String())
	wantType := map[string]string{
		"lowcomm_serve_tenant_weight":               "gauge",
		"lowcomm_serve_tenant_queue_depth":          "gauge",
		"lowcomm_serve_tenant_jobs_submitted_total": "counter",
		"lowcomm_serve_tenant_jobs_completed_total": "counter",
		"lowcomm_serve_tenant_drain_share":          "gauge",
	}
	for name, typ := range wantType {
		if families[name] != typ {
			t.Errorf("family %s type = %q, want %q", name, families[name], typ)
		}
	}
	want := map[string]float64{
		`lowcomm_serve_tenant_weight{tenant="acme"}`:               4,
		`lowcomm_serve_tenant_queue_depth{tenant="acme"}`:          2,
		`lowcomm_serve_tenant_jobs_submitted_total{tenant="acme"}`: 10,
		`lowcomm_serve_tenant_jobs_completed_total{tenant="acme"}`: 8,
		`lowcomm_serve_tenant_drain_share{tenant="acme"}`:          0.8,
		`lowcomm_serve_tenant_weight{tenant="zeta"}`:               1,
		`lowcomm_serve_tenant_drain_share{tenant="zeta"}`:          0.2,
	}
	for key, v := range want {
		if got := series[key]; got != v {
			t.Errorf("series %s = %v, want %v", key, got, v)
		}
	}

	// Empty snapshots write nothing: /metrics stays valid with the
	// source disabled.
	buf.Reset()
	if err := WriteTenantMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty tenant set wrote %q", buf.String())
	}
}

// TestTenantMetricsDocumented pins HELP text for every serve.tenant_*
// family the bridge exports, and that the placement_rejects HELP now
// names the health-penalized reason.
func TestTenantMetricsDocumented(t *testing.T) {
	for _, fam := range tenantFamilies {
		help, ok := helpText[fam.obsName]
		if !ok {
			t.Errorf("metric %q has no HELP text", fam.obsName)
			continue
		}
		if strings.TrimSpace(help) == "" {
			t.Errorf("metric %q has empty HELP text", fam.obsName)
		}
		if strings.ContainsAny(help, "\n\\") {
			t.Errorf("metric %q HELP text needs escaping: %q", fam.obsName, help)
		}
	}
	if !strings.Contains(helpText["fleet.placement_rejects"], "penalized") {
		t.Error("placement_rejects HELP does not document the health-penalized reason")
	}
}

// TestFleetHealthMetricsDocumented pins HELP text for every fault-
// tolerance counter the fleet scheduler registers: an undocumented
// series ships a dashboard nobody can read.
func TestFleetHealthMetricsDocumented(t *testing.T) {
	for _, name := range []string{
		"fleet.health_suspect", "fleet.health_dead", "fleet.health_probes",
		"fleet.health_readmitted", "fleet.requeued_jobs", "fleet.hedged_runs",
		"fleet.failed_jobs", "fleet.late_results", "fleet.transient_retries",
	} {
		help, ok := helpText[name]
		if !ok {
			t.Errorf("metric %q has no HELP text", name)
			continue
		}
		if strings.TrimSpace(help) == "" {
			t.Errorf("metric %q has empty HELP text", name)
		}
		if strings.ContainsAny(help, "\n\\") {
			t.Errorf("metric %q HELP text needs escaping: %q", name, help)
		}
	}
}

// TestWireClientHistogramsExported pins the client-side share of a wire
// Submit through the bridge: both histograms carry their own HELP text
// and come out under the standard lowcomm_*_seconds names.
func TestWireClientHistogramsExported(t *testing.T) {
	tr := obs.New()
	for _, name := range []string{"wire.client.assemble_seconds", "wire.client.decode_seconds"} {
		tr.Histogram(name).Observe(time.Millisecond)
		if help := helpText[name]; strings.TrimSpace(help) == "" || strings.ContainsAny(help, "\n\\") {
			t.Errorf("metric %q HELP text missing or needs escaping: %q", name, help)
		}
	}
	var buf bytes.Buffer
	if err := WriteTraceMetrics(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, buf.String())
	for _, want := range []string{
		"# TYPE lowcomm_wire_client_assemble_seconds histogram",
		"# TYPE lowcomm_wire_client_decode_seconds histogram",
		"lowcomm_wire_client_decode_seconds_count 1",
		helpText["wire.client.decode_seconds"],
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
