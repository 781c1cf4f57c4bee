// Command benchdiff compares two benchjson reports metric-by-metric and
// fails when the new report regresses beyond tolerance — the bench
// regression gate CI runs against the committed baseline.
//
//	benchdiff -base BENCH_BASELINE.json -new /tmp/bench-new.json -tol 0.25
//
// Relative metrics (ns/op, B/op, and any custom ReportMetric unit) fail
// when new > base·(1+tol). allocs/op is held to a hard gate instead: new
// may exceed base by at most -allocs-slack (absolute, default 0) plus
// -allocs-rel·base (proportional, default 0.05). The absolute slack is
// the real gate for zero/low-allocation hot paths, where any drift is a
// code change; the proportional term keeps setup-heavy benchmarks
// (thousands of allocs/op from pools and plan caches that amortize with
// iteration count) from tripping on a short -benchtime run. ns/op is
// compared only when both runs executed at least -min-time-iters
// iterations (default 100): a 10-iteration quick pass measures timer and
// setup overhead, not the operation, so its per-op time says nothing. On
// such short runs the allocs/op gate is also limited to zero-baseline
// benchmarks — a short run certifies allocation-freeness exactly (a
// clean timed loop measures 0 at any iteration count) but reports
// amortized setup on top of real per-op counts for everything else. A
// zero (or negative) baseline makes the relative gate meaningless —
// dividing by it yields ±Inf/NaN — so those metrics are held to the
// -zero-tol absolute increase instead (default 0: any growth from a zero
// baseline fails; zero baselines are usually hard-won, e.g. B/op of an
// allocation-free steady state). Benchmarks present in only one report
// are listed; -strict turns a benchmark missing from the NEW report into
// a failure (a deleted benchmark can hide a regression).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
)

// Result and Report mirror cmd/benchjson's JSON schema.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
	Failed     []string `json:"failed_packages,omitempty"`
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// key identifies one benchmark across reports. Pkg+Name; the -P procs
// suffix is part of neither (benchjson already split it off), so the same
// benchmark compares across machines with different core counts.
func key(r Result) string { return r.Pkg + "." + r.Name }

type finding struct {
	bench, metric string
	base, new     float64
	rel           float64 // (new-base)/base, 0 for absolute checks
	hard          bool    // allocs/op absolute check
	zeroBase      bool    // absolute check against a zero baseline
}

func (f finding) String() string {
	switch {
	case f.hard:
		return fmt.Sprintf("FAIL %s %s: %g -> %g (hard allocation gate)", f.bench, f.metric, f.base, f.new)
	case f.zeroBase:
		return fmt.Sprintf("FAIL %s %s: %g -> %g (zero baseline, absolute gate)", f.bench, f.metric, f.base, f.new)
	}
	return fmt.Sprintf("FAIL %s %s: %g -> %g (%+.1f%%)", f.bench, f.metric, f.base, f.new, 100*f.rel)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	var (
		basePath     = flag.String("base", "", "baseline benchjson report (required)")
		newPath      = flag.String("new", "", "candidate benchjson report (required)")
		tol          = flag.Float64("tol", 0.25, "allowed relative increase for timing/size metrics (0.25 = +25%)")
		allocsSlack  = flag.Float64("allocs-slack", 0, "allowed absolute increase in allocs/op before hard-failing")
		allocsRel    = flag.Float64("allocs-rel", 0.05, "additional allowed allocs/op increase as a fraction of the baseline (absorbs setup amortization on short runs)")
		zeroTol      = flag.Float64("zero-tol", 0, "allowed absolute increase for metrics whose baseline is zero (relative tolerance is undefined there)")
		minTimeIters = flag.Int64("min-time-iters", 100, "skip ns/op comparison when either run executed fewer iterations than this (short runs measure overhead, not the op)")
		strict       = flag.Bool("strict", false, "fail when a baseline benchmark is missing from the new report")
	)
	flag.Parse()
	if *basePath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	base, err := load(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	cand, err := load(*newPath)
	if err != nil {
		log.Fatal(err)
	}
	findings, missing, added := diff(base, cand, gates{
		tol:          *tol,
		allocsSlack:  *allocsSlack,
		allocsRel:    *allocsRel,
		zeroTol:      *zeroTol,
		minTimeIters: *minTimeIters,
	})

	for _, m := range missing {
		fmt.Printf("missing from %s: %s\n", *newPath, m)
	}
	for _, a := range added {
		fmt.Printf("new benchmark: %s\n", a)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	compared := 0
	for _, b := range base.Benchmarks {
		if _, ok := index(cand)[key(b)]; ok {
			compared++
		}
	}
	fmt.Printf("compared %d benchmarks, %d regressions, %d missing, %d added (tol %+.0f%%, allocs slack %g)\n",
		compared, len(findings), len(missing), len(added), 100**tol, *allocsSlack)
	if len(findings) > 0 || (*strict && len(missing) > 0) {
		os.Exit(1)
	}
}

func index(rep *Report) map[string]Result {
	m := make(map[string]Result, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		m[key(b)] = b
	}
	return m
}

// gates bundles the comparison thresholds (see the package doc and flag
// help for what each one means and defends against).
type gates struct {
	tol          float64 // relative increase allowed on timing/size metrics
	allocsSlack  float64 // absolute allocs/op increase allowed
	allocsRel    float64 // proportional allocs/op increase allowed
	zeroTol      float64 // absolute increase allowed over a zero baseline
	minTimeIters int64   // ns/op compared only when both runs have ≥ this many iterations
}

// diff compares every baseline benchmark that also exists in the candidate
// report. Returned findings are sorted by benchmark then metric.
func diff(base, cand *Report, g gates) (findings []finding, missing, added []string) {
	cIdx := index(cand)
	bIdx := index(base)
	for _, b := range base.Benchmarks {
		c, ok := cIdx[key(b)]
		if !ok {
			missing = append(missing, key(b))
			continue
		}
		metrics := make([]string, 0, len(b.Metrics))
		for name := range b.Metrics {
			metrics = append(metrics, name)
		}
		sort.Strings(metrics)
		for _, name := range metrics {
			bv := b.Metrics[name]
			cv, ok := c.Metrics[name]
			if !ok {
				continue // metric not captured in the candidate run
			}
			short := b.Iterations < g.minTimeIters || c.Iterations < g.minTimeIters
			if name == "allocs/op" {
				// A short run divides one-time setup (pool fills, lazily
				// built plans) across few iterations, inflating per-op
				// counts of allocation-heavy benchmarks — but it still
				// certifies allocation-freeness exactly: a clean timed
				// loop measures 0 at any iteration count. So on short
				// runs, only zero baselines are gated.
				if short && bv > 0 {
					continue
				}
				if cv > bv+g.allocsSlack+g.allocsRel*bv {
					findings = append(findings, finding{bench: key(b), metric: name, base: bv, new: cv, hard: true})
				}
				continue
			}
			// Per-op time from a handful of iterations is dominated by
			// timer granularity and one-time setup; comparing it against a
			// converged baseline reports a phantom regression of several
			// thousand percent on nanosecond-scale benchmarks.
			if name == "ns/op" && short {
				continue
			}
			// A zero baseline breaks the relative gate ((cv-bv)/bv is
			// ±Inf/NaN); silently skipping it — the old behavior — let a
			// hard-won 0 B/op steady state regress unnoticed. Treat it as
			// an absolute difference against -zero-tol instead.
			if bv <= 0 {
				if cv > bv+g.zeroTol {
					findings = append(findings, finding{bench: key(b), metric: name, base: bv, new: cv, zeroBase: true})
				}
				continue
			}
			if rel := (cv - bv) / bv; rel > g.tol {
				findings = append(findings, finding{bench: key(b), metric: name, base: bv, new: cv, rel: rel})
			}
		}
	}
	for _, c := range cand.Benchmarks {
		if _, ok := bIdx[key(c)]; !ok {
			added = append(added, key(c))
		}
	}
	sort.Strings(missing)
	sort.Strings(added)
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].bench != findings[j].bench {
			return findings[i].bench < findings[j].bench
		}
		return findings[i].metric < findings[j].metric
	})
	return findings, missing, added
}
