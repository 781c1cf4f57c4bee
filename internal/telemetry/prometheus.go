package telemetry

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/obs/jobtrace"
)

// namePrefix namespaces every exported series; a scrape of a lowcomm3d
// process is recognisable among hundreds of other jobs.
const namePrefix = "lowcomm_"

// helpText documents the stable exported names against the paper. Keys
// are the obs registry names (pre-sanitisation); anything not listed gets
// a generic HELP line, so an undocumented new counter is still exported.
var helpText = map[string]string{
	"cluster.bytes":                  "Total fabric bytes sent (point-to-point and collective-internal), incl. retransmits.",
	"cluster.messages":               "Logical messages sent across the fabric (retransmits excluded).",
	"cluster.retransmits":            "Messages re-sent after a receive deadline expired.",
	"cluster.timeouts":               "Receive attempts that hit their deadline.",
	"cluster.backoff_wait_ns":        "Nanoseconds spent in receive-deadline exponential backoff.",
	"cluster.collective.rounds":      "Completed all-to-all rounds; the traditional FFT costs 2 per 3D transform (Eq. 1), the proposed method 1 per exchange (Eq. 6, Fig. 1).",
	"cluster.collective.bytes":       "Fabric bytes moved by completed collective rounds - the measured twin of the paper's byte models: 16*N^3*(P-1)/P per slab-transpose round (Eq. 1), P*(P-1)*TOursBytes(N,k,r) per sparse exchange (Eq. 6).",
	"cluster.alltoall_seconds":       "Wall time of each worker's personalized all-to-all, the measured side of the alpha-beta ModelSec prediction (Eq. 2).",
	"cluster.allreduce_seconds":      "Wall time of each worker's all-reduce (gather-to-root + broadcast).",
	"cluster.broadcast_seconds":      "Wall time of each worker's broadcast.",
	"conv.pencils":                   "Half-spectrum pencils, (N/2+1)*N per run, transformed by the batched stage-B z sweeps (the paper's B-batch dimension, section 5.4).",
	"conv.samples":                   "Octree samples gathered by stage C.",
	"conv.sample_bytes":              "Compressed output bytes (samples + octree metadata), the numerator of Table 1's compression claim.",
	"conv.flops_model":               "Modeled FFT FLOPs (5*N*log2 N per line) executed by the local pipeline - the work term of the Table 3 runtime model.",
	"conv.peak_bytes":                "High-water intermediate footprint of conv.Local.Run: half-spectrum slab (8*N^2*k*(N+2)/N bytes, Table 1/Table 4's 8*N^2*k memory model plus the Nyquist column) + kept planes + samples.",
	"conv.stage_a_seconds":           "conv.Local.Run stage A (forward x and y transforms of the k sub-domain slices into the (N/2+1)*N*k half-spectrum slab).",
	"conv.stage_b_seconds":           "conv.Local.Run stage B (batched 1D z transforms + pointwise kernel, the cuFFT-callback stage of Table 3's pipeline).",
	"conv.stage_c_seconds":           "conv.Local.Run stage C (inverse y transforms of kept planes, inverse x of the sampled rows + octree sample gather).",
	"serve.jobs_submitted":           "Jobs accepted into the serving queue (admission passed).",
	"serve.jobs_completed":           "Jobs that ran to completion and returned a result.",
	"serve.jobs_rejected":            "Jobs refused at admission (queue full or device memory exhausted).",
	"serve.rejects_queue_full":       "Admission rejects due to the bounded job queue being at capacity.",
	"serve.rejects_memory":           "Admission rejects due to the device ledger refusing the job's modeled footprint (Table 1/4's 8*N^2*k-shaped bound).",
	"serve.plan_cache_hits":          "Executed submits, each run over the engine's one shared FFT plan set (plan set built once per engine; the section 3.1 plan-once-batch-many claim measured).",
	"serve.plan_cache_misses":        "Shared FFT plan-set builds: plan set built once per engine, in its constructor, so this reads 1.",
	"serve.queue_depth":              "High-water number of jobs waiting or running in the serving engine.",
	"serve.busy_workers":             "High-water number of serving workers executing jobs simultaneously.",
	"serve.job_seconds":              "End-to-end latency of one served convolution job (pipeline run, queue wait excluded).",
	"serve.queue_wait_seconds":       "Time a job spent queued between admission and a worker picking it up.",
	"fft.flops_model":                "Modeled FLOPs of full 3D pencil sweeps (5*N*log2 N per line).",
	"fft.sweep_x_seconds":            "Wall time of one x-axis 1D-transform sweep of Plan3D (N^2 lines).",
	"fft.sweep_y_seconds":            "Wall time of one y-axis 1D-transform sweep of Plan3D.",
	"fft.sweep_z_seconds":            "Wall time of one z-axis 1D-transform sweep of Plan3D.",
	"massif.iterations":              "MASSIF fixed-point iterations completed.",
	"massif.samples":                 "Octree samples exchanged per MASSIF iteration across all sub-domains.",
	"massif.sample_bytes":            "Compressed bytes entering the sparse all-to-all per MASSIF iteration (Alg. 2 line 6).",
	"massif.iteration_seconds":       "Wall time of each MASSIF fixed-point iteration.",
	"supervise.compute_seconds":      "Per-(rank, iter) MASSIF compute-phase durations - the same distribution the straggler quantile cutoff is computed from.",
	"supervise.heartbeat_deaths":     "Workers declared dead by the heartbeat monitor.",
	"supervise.respawns":             "Replacement workers brought back from durable checkpoints.",
	"supervise.respawn_latency_ns":   "Summed detection-to-first-beat respawn latency.",
	"supervise.stragglers_detected":  "(rank, iter) pairs flagged slower than the quantile cutoff.",
	"supervise.speculative_wins":     "Straggler iterations served by an idle backup's re-execution.",
	"supervise.duplicates_discarded": "Late duplicate results dropped at the speculation board.",
	"heal.generations":               "Worker generations run by the self-healing solve (1 = fault-free).",
	"heal.k_refinements":             "Admission-control decomposition refinements (Table 4's memory model as runtime behavior).",
	"ckpt.bytes_written":             "Durable checkpoint bytes written (temp+fsync+rename).",
	"ckpt.saves":                     "Durable checkpoint deposits completed.",
	"ckpt.max_file_bytes":            "Largest single checkpoint file written.",
	"serve.jobs_cancelled":           "Queued jobs freed because their context ended before a worker picked them up.",
	"serve.kernel_updates":           "Live kernel swaps (UpdateKernel); each bumps the fingerprint that keys the plan cache.",
	"fleet.jobs_placed":              "Jobs admitted by the fleet scheduler onto some device's ledger (cheapest admissible placement under the Eq. 2 alpha-beta cost).",
	"fleet.jobs_rejected":            "Jobs refused by the fleet scheduler (every admissible device's bounded queue full, or no device fits the modeled footprint).",
	"fleet.jobs_completed":           "Fleet jobs that ran to completion and released their reservation exactly once.",
	"fleet.jobs_cancelled":           "Fleet jobs removed from a device queue before dispatch.",
	"fleet.steals":                   "Work-stealing events: an idle device taking queued jobs from its most-backlogged sibling.",
	"fleet.stolen_jobs":              "Jobs migrated between device ledgers by work stealing.",
	"fleet.batch_runs":               "Batched dispatches of same-k jobs sharing one plan set (section 5.1's fleet batching, amortizing stages A/C).",
	"fleet.batch_jobs":               "Jobs dispatched inside batched runs; batch_jobs/batch_runs is the realized batching factor.",
	"fleet.queue_depth":              "High-water jobs queued across the whole fleet.",
	"fleet.inflight":                 "High-water jobs executing simultaneously across the fleet.",
	"fleet.health_suspect":           "Devices marked suspect after missing their EWMA-derived batch deadline.",
	"fleet.health_dead":              "Devices declared dead and quarantined (crash reports plus missed dead deadlines); their queued and in-flight work was reconciled back through the ledger.",
	"fleet.health_probes":            "Readmission probes issued against quarantined devices.",
	"fleet.health_readmitted":        "Quarantined devices readmitted to Healthy after a consecutive-OK probe streak.",
	"fleet.requeued_jobs":            "Jobs reclaimed from a dead device and re-placed on survivors (exactly-once: the dead reservation released, the new one re-reserved).",
	"fleet.hedged_runs":              "Hedged re-executions launched for batches stuck on suspect devices; first result wins, byte-identical either way.",
	"fleet.failed_jobs":              "Jobs resolved with a typed error after exhausting their fault-recovery attempts.",
	"fleet.late_results":             "Completions that arrived after recovery had already reclaimed the batch - dropped and counted, never double-released.",
	"fleet.transient_retries":        "Batch attempts lost to retryable compute errors and requeued as fresh attempts.",
	"wire.sessions_opened":           "Wire sessions opened by a client Hello without a resumable token.",
	"wire.sessions_resumed":          "Reconnects that re-attached to a live session by token (streaming resumes from the last ack).",
	"wire.sessions_expired":          "Detached sessions reaped after SessionTTL with their undelivered results.",
	"wire.sessions_live":             "High-water concurrent wire sessions.",
	"wire.jobs_submitted":            "Jobs accepted off the wire and handed to the serving engine.",
	"wire.jobs_completed":            "Wire jobs fully streamed and acked to the client.",
	"wire.jobs_rejected":             "Wire jobs refused with a typed overload/closing status (admission control surfaced to the network).",
	"wire.jobs_failed":               "Wire jobs that failed server-side (StatusInternal).",
	"wire.jobs_cancelled":            "Wire jobs ended by client cancellation or deadline expiry.",
	"wire.chunks_sent":               "Result chunks (sample.Chunk frames) streamed to clients, retransmits included.",
	"wire.chunk_bytes_sent":          "Result chunk payload bytes streamed to clients, retransmits included.",
	"wire.frames_corrupt":            "Inbound frames rejected by the header/payload CRCs (the chaos matrix's corrupt faults land here).",
	"wire.pings_sent":                "Keepalive pings sent to prove server liveness to quiet clients.",
	"wire.job_stream_seconds":        "Submit-to-final-ack latency of one wire job (compute plus backpressured result streaming).",
	"wire.client.reconnects":         "Client connections re-established after a transport failure.",
	"wire.client.resumes":            "Client resume requests sent after reconnecting (stream continues from the assembled offset).",
	"wire.client.retries":            "Client resubmits after a retryable overload status, honoring the server's retry-after hint.",
	"wire.client.restarts":           "Client jobs restarted from byte zero because the server no longer held the session.",
	"wire.client.jobs_completed":     "Client jobs that returned a fully assembled, CRC-verified result.",
	"wire.client.frames_corrupt":     "Inbound frames or chunks the client rejected as corrupt before resuming.",
	"wire.client.assemble_seconds":   "Client time to CRC-check and append one result chunk (sample.Assembler.Add); the sum over a job's chunks is its assemble share of a Submit.",
	"wire.client.decode_seconds":     "Client time to decode one fully assembled result stream (sample.Assembler.Compressed: header, 5-int octree metadata, linear-time tree validation, samples) - O(cells + samples).",
	"fleet.placement_rejects":        "Placement candidates rejected while scoring a job against the fleet (typed per-candidate reasons - tried, dead, probation, suspect, no-fit, memory, queue-full - recorded on the job's timeline with the losing Eq. 2 costs), plus health-penalized candidates that scored but lost (probation/suspect or freshly-readmitted devices priced at the HealthPenalty multiplier).",
	"serve.tenant_weight":            "Per-tenant deficit-round-robin dispatch weight: jobs served per queue visit, so under overload a weight-3 tenant drains ~3x a weight-1 tenant (labeled {tenant}).",
	"serve.tenant_queue_depth":       "Jobs currently queued per tenant in the serving engine's weighted-fair dispatch (labeled {tenant}).",
	"serve.tenant_jobs_submitted":    "Jobs accepted into the serving queue per tenant (labeled {tenant}).",
	"serve.tenant_jobs_completed":    "Jobs completed per tenant (labeled {tenant}).",
	"serve.tenant_drain_share":       "Tenant's fraction of all completed jobs - under saturation these shares converge to the normalized dispatch weights (labeled {tenant}).",
}

// MetricName converts an obs registry name to its exported Prometheus
// series name: sanitised to [a-zA-Z0-9_], prefixed with "lowcomm_", and
// (for counters) suffixed with "_total" per the Prometheus convention.
func MetricName(obsName string, counter bool) string {
	var b strings.Builder
	b.WriteString(namePrefix)
	for _, r := range obsName {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if counter {
		b.WriteString("_total")
	}
	return b.String()
}

func helpFor(obsName, kind string) string {
	if h, ok := helpText[obsName]; ok {
		return h
	}
	return fmt.Sprintf("obs %s %q (undocumented).", kind, obsName)
}

// promWriter accumulates exposition text, guarding against duplicate
// series (two obs names that sanitise to the same exported name would
// otherwise emit an invalid exposition; the first registration wins).
type promWriter struct {
	w    io.Writer
	seen map[string]bool
	err  error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// family emits the HELP/TYPE header for name; reports false on duplicate.
func (p *promWriter) family(name, help, typ string) bool {
	if p.seen[name] {
		return false
	}
	p.seen[name] = true
	p.printf("# HELP %s %s\n", name, help)
	p.printf("# TYPE %s %s\n", name, typ)
	return true
}

// WriteTraceMetrics renders a read-only snapshot of the trace in the
// Prometheus text exposition format (version 0.0.4): every obs counter as
// a counter, every gauge as a gauge, every latency histogram as a
// histogram with cumulative log2 `le` buckets, `_sum` in seconds, and
// `_count`. Taking the snapshot never mutates the trace (obs.Trace.Snapshot),
// so scraping a live solve is safe. Nil-safe: a nil trace writes nothing.
func WriteTraceMetrics(w io.Writer, tr *obs.Trace) error {
	snap := tr.Snapshot()
	p := &promWriter{w: w, seen: map[string]bool{}}
	for _, c := range snap.Counters {
		name := MetricName(c.Name, true)
		if !p.family(name, helpFor(c.Name, "counter"), "counter") {
			continue
		}
		p.printf("%s %d\n", name, c.Value)
	}
	for _, g := range snap.Gauges {
		name := MetricName(g.Name, false)
		if !p.family(name, helpFor(g.Name, "gauge"), "gauge") {
			continue
		}
		p.printf("%s %d\n", name, g.Value)
	}
	for _, h := range snap.Histograms {
		name := MetricName(h.Name, false)
		if !p.family(name, helpFor(h.Name, "histogram"), "histogram") {
			continue
		}
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			p.printf("%s_bucket{le=\"%g\"} %d\n", name, float64(b.UpperNs)/1e9, cum)
		}
		p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		p.printf("%s_sum %g\n", name, float64(h.SumNs)/1e9)
		p.printf("%s_count %d\n", name, h.Count)
	}
	return p.err
}

// jobPhaseName is the exported series for the per-tenant SLO breakdown:
// one histogram family, labeled {tenant, phase}, where the four phase
// series (place, queue, compute, stream) sum to the e2e series exactly —
// the per-job clamp chain in jobtrace guarantees the partition, so a
// dashboard can stack the phases against the end-to-end latency without
// residuals.
const jobPhaseName = namePrefix + "job_phase_seconds"

const jobPhaseHelp = "Per-tenant decomposition of served-job end-to-end latency into lifecycle phases " +
	"(phase=e2e|place|queue|compute|stream; the four component phases partition e2e exactly). " +
	"Place is the Eq. 2 cost-model scoring window, compute spans the stage A/B/C pipeline of section 5.1."

// writeHistogramSeries emits one labeled histogram's bucket/sum/count
// lines (cumulative `le` buckets, seconds).
func (p *promWriter) writeHistogramSeries(name, labels string, h obs.HistogramSnapshot) {
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		p.printf("%s_bucket{%s,le=\"%g\"} %d\n", name, labels, float64(b.UpperNs)/1e9, cum)
	}
	p.printf("%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, h.Count)
	p.printf("%s_sum{%s} %g\n", name, labels, float64(h.SumNs)/1e9)
	p.printf("%s_count{%s} %d\n", name, labels, h.Count)
}

// WriteJobPhaseMetrics renders the jobtrace collector's per-tenant phase
// histograms as one Prometheus histogram family labeled {tenant, phase}.
// Nil-safe: a nil collector (or one with no finished jobs) writes nothing,
// so the exposition stays valid when tracing is off.
func WriteJobPhaseMetrics(w io.Writer, c *jobtrace.Collector) error {
	phases := c.PhaseSnapshots()
	if len(phases) == 0 {
		return nil
	}
	p := &promWriter{w: w, seen: map[string]bool{}}
	p.family(jobPhaseName, jobPhaseHelp, "histogram")
	for _, t := range phases {
		for _, ph := range []struct {
			phase string
			h     obs.HistogramSnapshot
		}{
			{"e2e", t.E2E}, {"place", t.Place}, {"queue", t.Queue},
			{"compute", t.Compute}, {"stream", t.Stream},
		} {
			// %q's Go escaping (\\, \", \n) matches Prometheus label
			// escaping exactly.
			labels := fmt.Sprintf("tenant=%q,phase=%q", t.Tenant, ph.phase)
			p.writeHistogramSeries(jobPhaseName, labels, ph.h)
		}
	}
	return p.err
}

// TenantSnapshot is one tenant's weighted-fair dispatch accounting as the
// bridge exports it — field-for-field the same shape as the serving
// engine's snapshot, so glue code converts by plain struct conversion
// without this package importing the engine.
type TenantSnapshot struct {
	Tenant     string
	Weight     int
	Queued     int
	Submitted  uint64
	Completed  uint64
	DrainShare float64
}

// tenantFamilies is the serve.tenant_* contract: every family the bridge
// exports per tenant, with its obs-style name (keyed into helpText) and
// Prometheus type. The HELP-text test walks this list.
var tenantFamilies = []struct {
	obsName string
	counter bool
}{
	{"serve.tenant_weight", false},
	{"serve.tenant_queue_depth", false},
	{"serve.tenant_jobs_submitted", true},
	{"serve.tenant_jobs_completed", true},
	{"serve.tenant_drain_share", false},
}

// WriteTenantMetrics renders the per-tenant weighted-fair dispatch
// accounting as {tenant}-labeled families: weight and queue depth as
// gauges, submit/complete totals as counters, and the drain share — the
// measured counterpart of the normalized weights — as a gauge in [0, 1].
// Nil-safe: an empty snapshot writes nothing.
func WriteTenantMetrics(w io.Writer, tenants []TenantSnapshot) error {
	if len(tenants) == 0 {
		return nil
	}
	p := &promWriter{w: w, seen: map[string]bool{}}
	for _, fam := range tenantFamilies {
		name := MetricName(fam.obsName, fam.counter)
		typ := "gauge"
		if fam.counter {
			typ = "counter"
		}
		p.family(name, helpFor(fam.obsName, typ), typ)
		for _, t := range tenants {
			labels := fmt.Sprintf("tenant=%q", t.Tenant)
			switch fam.obsName {
			case "serve.tenant_weight":
				p.printf("%s{%s} %d\n", name, labels, t.Weight)
			case "serve.tenant_queue_depth":
				p.printf("%s{%s} %d\n", name, labels, t.Queued)
			case "serve.tenant_jobs_submitted":
				p.printf("%s{%s} %d\n", name, labels, t.Submitted)
			case "serve.tenant_jobs_completed":
				p.printf("%s{%s} %d\n", name, labels, t.Completed)
			case "serve.tenant_drain_share":
				p.printf("%s{%s} %g\n", name, labels, t.DrainShare)
			}
		}
	}
	return p.err
}

// WriteRuntimeMetrics renders a small set of Go runtime gauges/counters
// (goroutines, heap, GC) so a scrape sees process health next to the
// pipeline metrics.
func WriteRuntimeMetrics(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := &promWriter{w: w, seen: map[string]bool{}}
	gauges := []struct {
		name, help string
		v          uint64
	}{
		{"go_goroutines", "Number of live goroutines.", uint64(runtime.NumGoroutine())},
		{"go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", ms.HeapAlloc},
		{"go_memstats_heap_sys_bytes", "Bytes of heap obtained from the OS.", ms.HeapSys},
		{"go_memstats_sys_bytes", "Total bytes obtained from the OS.", ms.Sys},
		{"go_memstats_next_gc_bytes", "Heap size target of the next GC cycle.", ms.NextGC},
	}
	for _, g := range gauges {
		if p.family(g.name, g.help, "gauge") {
			p.printf("%s %d\n", g.name, g.v)
		}
	}
	counters := []struct {
		name, help string
		v          uint64
	}{
		{"go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects.", ms.TotalAlloc},
		{"go_gc_cycles_total", "Completed GC cycles.", uint64(ms.NumGC)},
	}
	for _, c := range counters {
		if p.family(c.name, c.help, "counter") {
			p.printf("%s %d\n", c.name, c.v)
		}
	}
	return p.err
}

// DocumentedMetrics returns the exported names this package documents with
// model-anchored HELP text, sorted — the stable-name contract tests pin.
func DocumentedMetrics() []string {
	out := make([]string, 0, len(helpText))
	for name := range helpText {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
