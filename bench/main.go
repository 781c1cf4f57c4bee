// Command bench is the repository's end-to-end benchmark: four workloads
// driven through the public functions of conv, fleet, serve and wire, every
// output checked against the dense oracle, eight end-to-end metrics per
// workload and a per-layer ladder. See README.md in this directory.
//
//	go run ./bench                                  all workloads, end-to-end metrics
//	go run ./bench -workload solve-n64-k16          one workload
//	go run ./bench -trace 1                         traced run: per-layer ladder
//	go run ./bench -trace out.json                  the same, and the spans as Chrome trace JSON
//	go run ./bench -aa 5                            A/A study: two sets of 5 runs of this binary
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"lowcomm3d/internal/obs/jobtrace"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the window every bound
// was derived with.
const defaultSeconds = 22

// A plain run sets the workload up at least minSetupReps times, and goes
// on until set-up has taken setupSeconds in all or maxSetupReps are done:
// setup_s is the median, the last set-up is the one measured. A set-up of
// milliseconds needs many repetitions for a steady median, one of seconds
// cannot afford them.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupSeconds = 2.0
)

type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd mirrors BENCHMARK.json's end_to_end (main_test.go holds the
// two together).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.15},
	{"op_tail_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"rss_peak_mb", "MB", "lower", 0.20},
	{"rel_l2_err", "ratio", "lower", 0.15},
	{"exchange_bytes_per_op", "B", "lower", 0.01},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a single-workload run prints.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	runtime.GOMAXPROCS(2)
	var (
		name    = flag.String("workload", "", "run this workload only, in this process (default: all, one fresh process each)")
		seed    = flag.Int64("seed", 1, "seed of every generated input and arrival schedule")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace   = flag.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; a file name: traced run that also writes its spans there as Chrome trace JSON")
		aa      = flag.Int("aa", 0, "A/A study: alternate two sets of this many runs of every workload and compare the set medians with the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	traced, traceFile := *trace != "0", ""
	if traced && *trace != "1" {
		traceFile = *trace
	}

	switch {
	case *aa > 0:
		if err := runAA(os.Stdout, *aa, *seed, *seconds); err != nil {
			fatalf("%v", err)
		}
	case *name == "":
		if err := runAll(os.Stdout, *seed, *seconds, *trace); err != nil {
			fatalf("%v", err)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		out, err := runOne(os.Stdout, w, *seed, *seconds, traced, traceFile)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		line, err := json.Marshal(out)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", line)
		if !out.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}

// rawLine is how a run prints what the clock read, before normalisation;
// the A/A study reads it back to set raw spread beside normalised spread.
const rawLine = "raw: op_p50 %g ms, yardstick p50 %g ms (cv %g)\n"

// runOne measures one workload in this process.
func runOne(log io.Writer, w workload, seed int64, seconds float64, traced bool, traceFile string) (*outcome, error) {
	fmt.Fprintf(log, "%s seed=%d seconds=%g traced=%v  %s %s/%s nproc=%d GOMAXPROCS=%d\n",
		w.name, seed, seconds, traced, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	y := newYardstick()
	y.mode = w.ref
	inputs := w.inputs(seed)

	// Set-up. A plain run repeats it for a steady setup_s; a traced run
	// sets up once without and once with the collector and the span
	// recorder, and alternates between the two.
	var halves []half
	var setups []float64
	if traced {
		plain, err := w.setup(inputs, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer plain.close()
		jobs := jobtrace.NewCollector()
		withTrace, err := w.setup(inputs, jobs)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		defer withTrace.close()
		halves = []half{{inst: plain}, {inst: withTrace, tr: newTracer(), jobs: jobs}}
	} else {
		var inst instance
		for spent := 0.0; len(setups) < minSetupReps || (spent < setupSeconds && len(setups) < maxSetupReps); {
			if inst != nil {
				inst.close()
			}
			runtime.GC()
			before := y.burst()
			t0 := time.Now()
			var err error
			if inst, err = w.setup(inputs, nil); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			d := time.Since(t0)
			spent += d.Seconds()
			setups = append(setups, normalise(float64(d), adjacentRef(before, y.burst()))/1e9)
		}
		defer inst.close()
		halves = []half{{inst: inst}}
	}

	runtime.GC()
	var m *measured
	if w.open {
		m = openLoop(y, w, halves, seconds, rand.New(rand.NewSource(seed)), openSchedule{openRate, openWindowNs})
	} else {
		m = closedLoop(y, w, halves, seconds)
	}
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}
	if m.firstErr != nil {
		fmt.Fprintf(log, "first failed op: %v\n", m.firstErr)
	}
	if len(m.normMs) == 0 {
		return nil, fmt.Errorf("no op completed (%d attempted): %v", m.attempted, m.firstErr)
	}

	// The oracle, after the window and after peak RSS is read.
	v, err := halves[len(halves)-1].inst.verify()
	if err != nil {
		// An output that is not what the oracle says makes every op that
		// returned it a failed op.
		fmt.Fprintf(log, "verification failed: %v\n", err)
		m.failed = m.attempted
	} else if v.relErr > w.errBudget {
		fmt.Fprintf(log, "rel_l2_err %.6g is over the budget %.6g\n", v.relErr, w.errBudget)
		m.failed = m.attempted
	}

	out := &outcome{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if traced {
		tr := halves[1].tr
		layers, err := layerMetrics(log, y, m, halves[1], seed)
		if err != nil {
			return nil, err
		}
		tr.printLadder(log)
		if traceFile != "" {
			if err := tr.writeChrome(traceFile); err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "wrote %d spans to %s\n", len(tr.spans), traceFile)
		}
		printMetrics(log, "per-layer metrics", perLayer, layers)
		for _, d := range perLayer {
			out.Metrics[d.name] = metric{Value: layers[d.name], Unit: d.unit}
		}
	} else {
		e2e := endToEndMetrics(w, m, seconds, setups, rss, v)
		printMetrics(log, "end-to-end metrics", endToEnd, e2e)
		for _, d := range endToEnd {
			out.Metrics[d.name] = metric{Value: e2e[d.name], Unit: d.unit}
		}
	}
	fmt.Fprintf(log, "ops: %d attempted, %d failed, %d samples, tail is p%.0f\n",
		m.attempted, m.failed, len(m.rawMs), 100*w.tailPercentile(seconds))
	fmt.Fprintf(log, rawLine, median(m.rawMs), median(y.wallNs)/1e6, cv(y.wallNs))
	return out, nil
}

// endToEndMetrics turns a window into the eight end-to-end figures.
func endToEndMetrics(w workload, m *measured, seconds float64, setups []float64, rss int64, v verdict) map[string]float64 {
	sorted := append([]float64(nil), m.normMs...)
	sort.Float64s(sorted)
	completed := float64(len(sorted))
	e := map[string]float64{
		"op_p50_ms":             quantileSorted(sorted, 0.5),
		"op_tail_ms":            quantileSorted(sorted, w.tailPercentile(seconds)),
		"cpu_ms_per_op":         m.cpuNormMs / completed,
		"rss_peak_mb":           float64(rss) / (1 << 20),
		"rel_l2_err":            v.relErr,
		"exchange_bytes_per_op": v.exchangeBytes,
	}
	if w.open {
		e["ops_per_s"] = float64(m.withinLimit) / m.normSec
	} else {
		e["ops_per_s"] = completed / m.normSec
	}
	if len(setups) > 0 {
		e["setup_s"] = median(setups)
	}
	return e
}

func printMetrics(log io.Writer, title string, defs []metricDef, v map[string]float64) {
	fmt.Fprintf(log, "\n%s\n", title)
	for _, d := range defs {
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  regression beyond %g%%", 100*d.bound)
		}
		fmt.Fprintf(log, "  %-32s %14.6g %-6s (%s is better)%s\n", d.name, v[d.name], d.unit, d.better, bound)
	}
}
