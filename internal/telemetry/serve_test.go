package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"lowcomm3d/internal/obs"
)

func get(t *testing.T, url string) (status int, contentType, body string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(data)
}

func TestServeEndpoints(t *testing.T) {
	tr := obs.New()
	tr.Counter("cluster.bytes").Add(123)
	tr.Histogram("cluster.alltoall_seconds").Observe(time.Millisecond)
	rec := NewRecorder(3, 16)
	rec.Heartbeat(2, 9)

	srv, err := Serve("127.0.0.1:0", tr, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	status, ct, body := get(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"lowcomm_cluster_bytes_total 123",
		"# TYPE lowcomm_cluster_alltoall_seconds histogram",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	lintExposition(t, body)

	status, ct, body = get(t, base+"/healthz")
	if status != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/healthz status %d, Content-Type %q", status, ct)
	}
	var health struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
		Ranks  int     `json:"ranks"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz is not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Ranks != 3 || health.Uptime < 0 {
		t.Fatalf("/healthz = %+v", health)
	}

	status, _, body = get(t, base+"/flight")
	if status != http.StatusOK {
		t.Fatalf("/flight status %d", status)
	}
	if !strings.Contains(body, "FLIGHT RECORDER POSTMORTEM — 3 ranks") {
		t.Fatalf("/flight body:\n%s", body)
	}
	if !strings.Contains(body, "last heartbeat:  iter=9") {
		t.Fatalf("/flight missing rank 2 heartbeat:\n%s", body)
	}

	status, _, body = get(t, base+"/debug/pprof/cmdline")
	if status != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline status %d", status)
	}
}

func TestServeNilTraceAndRecorder(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	status, _, body := get(t, base+"/metrics")
	if status != http.StatusOK || !strings.Contains(body, "go_goroutines") {
		t.Fatalf("nil-trace /metrics: status %d body:\n%s", status, body)
	}
	status, _, body = get(t, base+"/flight")
	if status != http.StatusOK || !strings.Contains(body, "no flight recorder") {
		t.Fatalf("nil-recorder /flight: status %d body:\n%s", status, body)
	}
	status, _, body = get(t, base+"/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"ranks":0`) {
		t.Fatalf("nil-recorder /healthz: status %d body:\n%s", status, body)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999", nil, nil); err == nil {
		t.Fatal("expected listen error")
	}
}

func TestServeCloseStopsServing(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still accepting after Close")
	}
}
