package conv

import (
	"testing"
	"time"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/sample"
)

// TestSpanCoverage is the ISSUE's no-unattributed-hot-path check: the
// three stage spans must account for ≥95% of conv.Local.Run's wall time —
// if someone adds work outside a stage, this fails and the trace goes
// blind to it.
func TestSpanCoverage(t *testing.T) {
	const n, k = 64, 16
	d := grid.Cube(n)
	box := grid.BoxAt(grid.Point{0, 0, 0}, k, k, k)
	tree, err := sample.DefaultPolicy(box, 8).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	l, err := NewLocal(d, box, tree, KernelPointwise(d, green.Gaussian{Sigma: 2}), Config{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	f := grid.NewField(grid.Cube(k))
	for i := range f.Data {
		f.Data[i] = float64(i%13) - 6
	}
	if _, _, err := l.Run(f); err != nil {
		t.Fatal(err)
	}

	run := tr.SpanTotal("conv.run")
	if run <= 0 {
		t.Fatal("no conv.run span recorded")
	}
	var stages time.Duration
	for _, name := range []string{"conv.stageA", "conv.stageB", "conv.stageC"} {
		st := tr.SpanTotal(name)
		if st <= 0 {
			t.Errorf("stage span %s missing", name)
		}
		stages += st
	}
	if float64(stages) < 0.95*float64(run) {
		t.Errorf("stages cover %v of %v (%.1f%%), want ≥95%%",
			stages, run, 100*float64(stages)/float64(run))
	}
	if stages > run {
		t.Errorf("stages %v exceed run %v: spans are not nested", stages, run)
	}
}

// TestRunCounters pins the obs counters to the Stats values they mirror.
func TestRunCounters(t *testing.T) {
	const n, k = 32, 8
	d := grid.Cube(n)
	box := grid.BoxAt(grid.Point{8, 8, 8}, k, k, k)
	tree, err := sample.DefaultPolicy(box, 8).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	l, err := NewLocal(d, box, tree, KernelPointwise(d, green.Gaussian{Sigma: 2}), Config{Trace: tr, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := grid.NewField(grid.Cube(k))
	f.Set(3, 3, 3, 1)
	_, st, err := l.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CounterValue("conv.pencils"); got != int64(st.PencilCount) {
		t.Errorf("conv.pencils = %d, Stats.PencilCount = %d", got, st.PencilCount)
	}
	if st.PencilCount != (n/2+1)*n {
		t.Errorf("PencilCount = %d, want (n/2+1)·n = %d", st.PencilCount, (n/2+1)*n)
	}
	if got := tr.CounterValue("conv.samples"); got != int64(st.SampleCount) {
		t.Errorf("conv.samples = %d, Stats.SampleCount = %d", got, st.SampleCount)
	}
	if got := tr.CounterValue("conv.sample_bytes"); got != int64(st.SampleBytes) {
		t.Errorf("conv.sample_bytes = %d, Stats.SampleBytes = %d", got, st.SampleBytes)
	}
	if got := tr.GaugeValue("conv.peak_bytes"); got != int64(st.PeakBytes) {
		t.Errorf("conv.peak_bytes = %d, Stats.PeakBytes = %d", got, st.PeakBytes)
	}
	if tr.CounterValue("conv.flops_model") <= 0 {
		t.Error("conv.flops_model not accumulated")
	}
	// A second run accumulates rather than resets.
	if _, _, err := l.Run(f); err != nil {
		t.Fatal(err)
	}
	if got := tr.CounterValue("conv.pencils"); got != 2*int64(st.PencilCount) {
		t.Errorf("after 2 runs conv.pencils = %d, want %d", got, 2*st.PencilCount)
	}
	// Worker spans landed off the main track.
	sawWorker := false
	for _, s := range tr.Spans() {
		if s.Name == "conv.stageB.worker" && s.Track > 0 {
			sawWorker = true
		}
	}
	if !sawWorker {
		t.Error("no conv.stageB.worker span on a worker track")
	}
}

// TestNilTraceRunsClean pins the nil-trace default: no spans, no panic,
// identical results.
func TestNilTraceRunsClean(t *testing.T) {
	const n, k = 16, 8
	d := grid.Cube(n)
	box := grid.BoxAt(grid.Point{0, 0, 0}, k, k, k)
	tree, err := sample.DefaultPolicy(box, 4).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cfg Config) []float64 {
		l, err := NewLocal(d, box, tree, KernelPointwise(d, green.Gaussian{Sigma: 1.5}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		f := grid.NewField(grid.Cube(k))
		f.Set(1, 2, 3, 1)
		res, _, err := l.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		return res.Samples
	}
	plain := mk(Config{})
	traced := mk(Config{Trace: obs.New()})
	if len(plain) != len(traced) {
		t.Fatalf("sample count differs: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("sample %d differs: %g vs %g (tracing changed results)", i, plain[i], traced[i])
		}
	}
}
