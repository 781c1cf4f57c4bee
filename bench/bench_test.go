package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{4500, 0.90}, {100, 0.90}, {99, 0.80}, {50, 0.80}, {49, 0.70}, {34, 0.70}, {33, 0.60}, {25, 0.60}, {5, 0.60},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The percentile comes from the workload's sure rate and the window
	// length, not from a run's own count, so it cannot flip between runs.
	want := map[string]float64{"local-n128-k32": 0.8, "solve-n64-k16": 0.6, "wire-closed-n64-k16": 0.9, "serve-rate150-n32-k8": 0.9}
	for _, w := range workloads {
		if q := w.tailPercentile(defaultSeconds); q != want[w.name] {
			t.Errorf("%s: tail percentile %g at the default window, want %g", w.name, q, want[w.name])
		}
	}
}

func TestNormaliseArithmetic(t *testing.T) {
	// An op of 30 ms next to a yardstick of 3 ms is a 20 ms op on the
	// machine where the yardstick takes RefNominalMs = 2 ms.
	if got := normalise(30e6, adjacentRef(2.5e6, 3.5e6)); math.Abs(got-20e6) > 1e-3 {
		t.Errorf("normalise = %g ns, want 20e6", got)
	}
	if got := quantileSorted([]float64{1, 2, 3, 4, 5}, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 of 1..5 = %g, want 4.6", got)
	}
	// IQR over median as Python's statistics.quantiles(v, n=4) gives it.
	if got := iqrOverMedian([]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}); math.Abs(got-5.5/14.5) > 1e-12 {
		t.Errorf("iqrOverMedian = %g, want %g", got, 5.5/14.5)
	}
}

func TestYardstickModes(t *testing.T) {
	y := newYardstick()
	for _, mode := range []refMode{refAlone, refPair, refEachCPU} {
		y.mode = mode
		if d := y.once(); d <= 0 || math.IsNaN(d) {
			t.Errorf("mode %d: kernel time %g ns", mode, d)
		}
	}
	if len(y.wallNs) != 3 || y.cpuNs <= 0 {
		t.Errorf("%d kernels and %d ns of CPU booked, want 3 and some", len(y.wallNs), y.cpuNs)
	}
}

// sleeper is an instance whose op waits without using the CPU.
type sleeper struct{ d time.Duration }

func (s sleeper) op(int) (opInfo, error)   { time.Sleep(s.d); return opInfo{}, nil }
func (s sleeper) verify() (verdict, error) { return verdict{}, nil }
func (s sleeper) close()                   {}

// The yardstick runs between ops for longer than the ops themselves here;
// neither its time nor its CPU may show in throughput or CPU per op.
func TestClosedLoopExcludesYardstick(t *testing.T) {
	y := newYardstick()
	w := workload{name: "test", refEach: 3}
	if k := y.median(3); k > 3*RefNominalMs*1e6 {
		t.Skipf("a yardstick of %.1f ms (race detector?) leaves no room for ops in the test's window", k/1e6)
	}
	m := closedLoop(y, w, []half{{inst: sleeper{2 * time.Millisecond}}}, 0.15)
	if m.failed != 0 || len(m.normMs) < 3 {
		t.Fatalf("%d ops completed, %d failed", len(m.normMs), m.failed)
	}
	ops := float64(len(m.normMs))
	kernelMs := median(y.wallNs) / 1e6
	if kernelMs*2*float64(w.refEach) < 2 {
		t.Skipf("yardstick of %.2f ms is too fast on this machine for the test to tell", kernelMs)
	}
	// ops ÷ Σ op time is about one op per mean op time; with the kernels in
	// the denominator it would be less than half of that.
	if perOp := m.normSec / ops * 1e3; math.Abs(perOp-mean(m.normMs)) > 1e-9 {
		t.Errorf("throughput counts %.3f ms per op, ops took %.3f ms", perOp, mean(m.normMs))
	}
	if rawPerOp := mean(m.rawMs); rawPerOp > 2+kernelMs {
		t.Errorf("op time %.2f ms includes yardstick time (%.2f ms a kernel)", rawPerOp, kernelMs)
	}
	// A sleeping op uses next to no CPU; a kernel uses all of its time.
	if cpu := m.cpuNormMs / ops; cpu > 0.5*kernelMs {
		t.Errorf("cpu per op %.3f ms includes yardstick CPU (%.2f ms a kernel)", cpu, kernelMs)
	}
}

func TestArrivalsRepeatForASeed(t *testing.T) {
	draw := func(seed int64) [][]arrival {
		rng := rand.New(rand.NewSource(seed))
		var w [][]arrival
		for i := 0; i < 3; i++ {
			w = append(w, arrivalWindow(rng, openRate, openWindowNs, len(openTenants), servedBoxes))
		}
		return w
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different arrival times, tenants or boxes")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	tenants, boxes := map[int]int{}, map[int]int{}
	for _, win := range a {
		if len(win) != openRate {
			t.Fatalf("window has %d arrivals, want exactly %d", len(win), openRate)
		}
		for i, x := range win {
			if x.dueNs < 0 || x.dueNs >= openWindowNs || (i > 0 && x.dueNs < win[i-1].dueNs) {
				t.Fatalf("arrival %d due at %d ns: out of the window or out of order", i, x.dueNs)
			}
			tenants[x.tenant]++
			boxes[x.box]++
		}
	}
	if len(tenants) != len(openTenants) || len(boxes) != servedBoxes {
		t.Errorf("schedule uses %d tenants and %d boxes, want %d and %d", len(tenants), len(boxes), len(openTenants), servedBoxes)
	}
}

// hog is an open-loop instance whose requests keep the only CPU busy, so
// that the generator cannot send the requests due meanwhile on time.
type hog struct {
	sleeper
	busy time.Duration
}

func (h hog) submit(arrival) (opInfo, error) {
	for t0 := time.Now(); time.Since(t0) < h.busy; {
	}
	return opInfo{}, nil
}

func TestOpenLoopLatencyIsFromDueTime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const busy = 3 * time.Millisecond
	y := newYardstick()
	if k := y.median(3); k > 3*RefNominalMs*1e6 {
		t.Skipf("a yardstick of %.1f ms (race detector?) stretches the schedule beyond the test's window", k/1e6)
	}
	sched := openSchedule{perWindow: 20, windowNs: 100e6} // 200/s of 3 ms requests on one CPU
	m := openLoop(y, workload{name: "test"}, []half{{inst: hog{busy: busy}}}, 0.4, rand.New(rand.NewSource(1)), sched)
	if m.failed != 0 || len(m.rawMs) < sched.perWindow {
		t.Fatalf("%d ops completed, %d failed", len(m.rawMs), m.failed)
	}
	late := 0
	for i, raw := range m.rawMs {
		// From its due time an op takes the generator's lateness and then
		// its own time; from its send time it would take its own time only.
		if own := float64(busy) / 1e6; raw < m.lateMs[i]+own-0.05 {
			t.Fatalf("op %d: latency %.3f ms is less than its lateness %.3f ms plus its own %.0f ms", i, raw, m.lateMs[i], own)
		}
		if m.lateMs[i] > 1 {
			late++
		}
	}
	if late == 0 {
		t.Error("no request was sent late, so the test told nothing")
	}
	if want := float64(len(m.rawMs)) / float64(sched.perWindow) * float64(sched.windowNs) / 1e9; math.Abs(m.normSec-want) > 0.1*want {
		t.Errorf("offered %.4f s on the nominal machine, want %.4f s for %d ops", m.normSec, want, len(m.rawMs))
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	root := tr.add("op", 0, -1, t0, 10*time.Millisecond, false)
	call := tr.add("call", 0, root, t0.Add(time.Millisecond), 9*time.Millisecond, false)
	tr.chain(0, call, t0.Add(time.Millisecond), []string{"a", "b"}, []time.Duration{2 * time.Millisecond, 3 * time.Millisecond})
	self := map[string]int64{}
	for _, r := range tr.ladder() {
		self[r.name] = r.selfNs
	}
	want := map[string]int64{"op": 1e6, "call": 4e6, "a": 2e6, "b": 3e6}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	var none *tracer
	if none.add("x", 0, -1, t0, 1, false) != -1 || none.ladder() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

// BENCHMARK.json is what the driver reads; the tables in the source are
// what the program prints. They must say the same.
func TestBenchmarkJSONMatchesSource(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the source", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the source %q (or their why differs)", i, b.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the source", kind, len(js), len(defs))
		}
		for i, d := range defs {
			j := js[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the source %+v", kind, i, j, d)
			}
			if bounded != (j.Bound != nil) || (bounded && *j.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the source's %g", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}
