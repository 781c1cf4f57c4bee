package telemetry

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/obs/jobtrace"
)

// Server is a running telemetry HTTP endpoint. Close shuts it down.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Addr returns the bound address (useful with ":0" for tests).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// shutdownTimeout bounds how long Close waits for in-flight scrapes.
const shutdownTimeout = 2 * time.Second

// Close stops the server and releases the listener, letting in-flight
// requests finish. http.Server.Close would sever a scrape mid-body and
// the collector would record a truncated, unparseable exposition right at
// shutdown — the scrape most likely to matter in a postmortem. If the
// graceful drain exceeds shutdownTimeout, remaining connections are cut.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// metricsMidwrite, when non-nil (tests only), runs inside the /metrics
// handler between the trace and runtime sections, letting a test hold a
// scrape in flight while Close is called.
var metricsMidwrite func()

// ServeConfig names the telemetry sources a Server exposes. Every field
// is optional; endpoints degrade gracefully when their source is nil.
type ServeConfig struct {
	// Trace feeds /metrics (counters, gauges, latency histograms).
	Trace *obs.Trace
	// Flight feeds /flight (live postmortem) and /healthz's rank count.
	Flight *Recorder
	// Jobs feeds /jobs, /jobs/{trace_id}, and the per-tenant
	// lowcomm_job_phase_seconds family appended to /metrics.
	Jobs *jobtrace.Collector
}

// Serve binds addr (":8080", "127.0.0.1:0", …) and serves the live
// telemetry endpoints in a background goroutine:
//
//	/metrics        Prometheus text exposition of the trace + Go runtime
//	/healthz        JSON liveness (uptime, rank count)
//	/flight         current flight-recorder postmortem (live, no crash needed)
//	/debug/pprof/*  standard Go profiling handlers
//
// tr and rec may be nil; the endpoints degrade to runtime-only metrics and
// a placeholder flight dump. The returned Server's Addr reports the bound
// address; Close shuts it down. ServeWith additionally exposes per-job
// lifecycle timelines.
func Serve(addr string, tr *obs.Trace, rec *Recorder) (*Server, error) {
	return ServeWith(addr, ServeConfig{Trace: tr, Flight: rec})
}

// ServeWith is Serve with the full source set. When cfg.Jobs is non-nil
// it additionally serves:
//
//	/jobs             JSON index of recent job timelines (most recent first)
//	/jobs/{trace_id}  one job's full timeline (decimal TraceID)
//	/jobs/trace       Chrome trace-event JSON of recent jobs (load in
//	                  chrome://tracing or Perfetto)
//
// and appends the per-tenant lowcomm_job_phase_seconds histogram family
// to /metrics.
func ServeWith(addr string, cfg ServeConfig) (*Server, error) {
	tr, rec := cfg.Trace, cfg.Flight
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, start: time.Now()}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteTraceMetrics(w, tr); err != nil {
			return
		}
		if cfg.Jobs != nil {
			if err := WriteJobPhaseMetrics(w, cfg.Jobs); err != nil {
				return
			}
		}
		if metricsMidwrite != nil {
			metricsMidwrite()
		}
		WriteRuntimeMetrics(w)
	})
	if cfg.Jobs != nil {
		mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(cfg.Jobs.Jobs())
		})
		mux.HandleFunc("/jobs/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			cfg.Jobs.WriteChromeTrace(w)
		})
		mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
			idStr := strings.TrimPrefix(r.URL.Path, "/jobs/")
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				http.Error(w, "trace id must be a decimal TraceID", http.StatusBadRequest)
				return
			}
			snap, ok := cfg.Jobs.Job(jobtrace.TraceID(id))
			if !ok {
				http.Error(w, "no such job (evicted or never traced)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(snap)
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(s.start).Seconds(),
			"ranks":          rec.Ranks(),
		})
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rec.WritePostmortem(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}
