package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/fleet"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/wire"
)

// perLayer mirrors BENCHMARK.json's per_layer. Layers are the module
// names. A metric taken from the workload's own ops reads 0 on a workload
// whose ops do not pass through that layer; a probe (a fixed micro-run at
// the n64-k16 shape, after the window) reads the same on every workload.
// README.md says which end-to-end metric each should move, and where.
var perLayer = []metricDef{
	{name: "fft.plan1d_n128_us", unit: "us", better: "lower"},
	{name: "fft.plan1d_n64_us", unit: "us", better: "lower"},
	{name: "fft.plan1d_n96_us", unit: "us", better: "lower"},
	{name: "fft.plan2d_n128_ms", unit: "ms", better: "lower"},
	{name: "fft.plan3d_n64_ms", unit: "ms", better: "lower"},

	{name: "conv.stage_a_ms", unit: "ms", better: "lower"},
	{name: "conv.stage_b_ms", unit: "ms", better: "lower"},
	{name: "conv.stage_c_ms", unit: "ms", better: "lower"},
	{name: "conv.allocs_per_op", unit: "count", better: "lower"},
	{name: "conv.peak_bytes", unit: "B", better: "lower"},
	{name: "conv.model_bytes_ratio", unit: "ratio", better: "lower"},
	{name: "conv.decomposed_ms", unit: "ms", better: "lower"},
	{name: "conv.accumulate_ms", unit: "ms", better: "lower"},
	{name: "conv.dense_baseline_ms", unit: "ms", better: "lower"},
	{name: "conv.planset_build_ms", unit: "ms", better: "lower"},
	{name: "conv.local_build_ms", unit: "ms", better: "lower"},

	{name: "octree.build_ms", unit: "ms", better: "lower"},
	{name: "octree.cells", unit: "count", better: "lower"},
	{name: "sample.samples_per_box", unit: "count", better: "lower"},
	{name: "sample.compression_ratio", unit: "ratio", better: "higher"},
	{name: "sample.encode_ms", unit: "ms", better: "lower"},
	{name: "sample.decode_ms", unit: "ms", better: "lower"},
	{name: "sample.addto_ms", unit: "ms", better: "lower"},
	{name: "green.pointwise_build_ms", unit: "ms", better: "lower"},

	{name: "serve.submit_overhead_us", unit: "us", better: "lower"},
	{name: "serve.queue_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.queue_wait_p90_ms", unit: "ms", better: "lower"},
	{name: "serve.allocs_per_op", unit: "count", better: "lower"},
	{name: "serve.capacity_ops_s", unit: "1/s", better: "higher"},
	{name: "serve.rejected_ratio", unit: "ratio", better: "lower"},
	{name: "serve.plan_cache_hit_ratio", unit: "ratio", better: "higher"},

	{name: "fleet.place_us", unit: "us", better: "lower"},
	{name: "fleet.solve_overhead_ms", unit: "ms", better: "lower"},
	{name: "fleet.scaling_eff_2dev", unit: "ratio", better: "higher"},
	{name: "fleet.batch_runs_per_op", unit: "count", better: "lower"},
	{name: "fleet.steals_per_op", unit: "count", better: "lower"},

	{name: "wire.overhead_ms", unit: "ms", better: "lower"},
	{name: "wire.client_ms", unit: "ms", better: "lower"},
	{name: "wire.frame_encode_us", unit: "us", better: "lower"},
	{name: "wire.frame_decode_us", unit: "us", better: "lower"},
	{name: "wire.chunks_per_op", unit: "count", better: "lower"},
	{name: "wire.socket_bytes_per_op", unit: "B", better: "lower"},
	{name: "wire.reconnects", unit: "count", better: "lower"},
	{name: "wire.retries", unit: "count", better: "lower"},

	{name: "cluster.lowcomm_exchange_bytes", unit: "B", better: "lower"},
	{name: "cluster.comm_reduction_x", unit: "ratio", better: "higher"},

	{name: "jobtrace.place_ms", unit: "ms", better: "lower"},
	{name: "jobtrace.queue_ms", unit: "ms", better: "lower"},
	{name: "jobtrace.compute_ms", unit: "ms", better: "lower"},
	{name: "jobtrace.stream_ms", unit: "ms", better: "lower"},
	{name: "jobtrace.partition_gap_ratio", unit: "ratio", better: "lower"},

	{name: "bench.ref_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.ref_cv", unit: "ratio", better: "lower"},
	{name: "bench.op_p50_raw_ms", unit: "ms", better: "lower"},
	{name: "bench.op_p99_raw_ms", unit: "ms", better: "lower"},
	{name: "bench.gen_late_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.samples", unit: "count", better: "higher"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
}

// layerCounter is implemented by instances whose layers keep public
// counters; the figures are per op the instance has run since set-up.
type layerCounter interface {
	layerCounts() map[string]float64
}

// layerMetrics computes every per-layer metric of a traced run: those of
// the window from m and the traced half, the rest from probes.
func layerMetrics(log io.Writer, y *yardstick, m *measured, traced half, seed int64) (map[string]float64, error) {
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	windowMetrics(v, y, m, traced)
	if lc, ok := traced.inst.(layerCounter); ok {
		for k, x := range lc.layerCounts() {
			v[k] = x
		}
	}
	t0 := time.Now()
	defer func(mode refMode) { y.mode = mode }(y.mode)
	y.mode = refAlone // the probes are single-threaded but for two, and read the same on every workload
	p := &prober{y: y, v: v, seed: seed}
	for _, probe := range []func() error{
		p.fft, p.convAndSample, p.decomposedAndFleet, p.serve, p.wire, p.cluster,
	} {
		if err := probe(); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
	}
	fmt.Fprintf(log, "layer probes took %.1f s\n", time.Since(t0).Seconds())
	return v, nil
}

// windowMetrics fills in what the window itself measured.
func windowMetrics(v map[string]float64, y *yardstick, m *measured, traced half) {
	var tracedMs, plainMs, scales, waits []float64
	var peak, model float64
	for i, info := range m.infos {
		scale := m.normMs[i] / m.rawMs[i] // this op's raw → nominal factor
		scales = append(scales, scale)
		if m.traced[i] {
			tracedMs = append(tracedMs, m.normMs[i])
		} else {
			plainMs = append(plainMs, m.normMs[i])
		}
		if st := info.stats; st.StageA > 0 {
			peak = max(peak, float64(st.PeakBytes))
			model = float64(st.ModelBytes)
			waits = append(waits, scale*info.wait.Seconds()*1e3)
		}
	}
	if model > 0 {
		v["conv.peak_bytes"] = peak
		v["conv.model_bytes_ratio"] = peak / model
		v["serve.queue_wait_p50_ms"] = quantile(waits, 0.5)
		v["serve.queue_wait_p90_ms"] = quantile(waits, 0.9)
	}
	if len(tracedMs) > 0 && len(plainMs) > 0 {
		v["bench.trace_overhead_ratio"] = median(tracedMs) / median(plainMs)
	}
	// Per traced op, from the spans: the stages wherever the call reported
	// them (conv.Stats, or the stage events of the job's timeline), and the
	// part of a wire op that is on no server-side timeline.
	scale := median(scales)
	for _, r := range traced.tr.ladder() {
		perOp := scale * float64(r.totalNs) / 1e6 / float64(len(tracedMs))
		switch r.name {
		case "conv.stageA":
			v["conv.stage_a_ms"] = perOp
		case "conv.stageB":
			v["conv.stage_b_ms"] = perOp
		case "conv.stageC":
			v["conv.stage_c_ms"] = perOp
		case "wire.Client.Submit":
			v["wire.client_ms"] = scale * float64(r.selfNs) / 1e6 / float64(len(tracedMs))
		}
	}
	v["bench.ref_p50_ms"] = median(y.wallNs) / 1e6
	v["bench.ref_cv"] = cv(y.wallNs)
	v["bench.op_p50_raw_ms"] = quantile(m.rawMs, 0.5)
	v["bench.op_p99_raw_ms"] = quantile(m.rawMs, 0.99)
	v["bench.samples"] = float64(len(m.rawMs))
	if len(m.lateMs) > 0 {
		v["bench.gen_late_p99_ms"] = quantile(m.lateMs, 0.99)
	}

	// The job timelines' own account of where the op went. The four phases
	// partition the job's latency; what they leave of the op as the caller
	// timed it is the gap.
	var e2e, place, queue, compute, stream, jobs float64
	for _, tp := range traced.jobs.PhaseSnapshots() {
		if tp.Tenant == "warm" {
			continue
		}
		e2e += float64(tp.E2E.SumNs)
		place += float64(tp.Place.SumNs)
		queue += float64(tp.Queue.SumNs)
		compute += float64(tp.Compute.SumNs)
		stream += float64(tp.Stream.SumNs)
		jobs += float64(tp.E2E.Count)
	}
	if jobs > 0 {
		v["jobtrace.place_ms"] = scale * place / jobs / 1e6
		v["jobtrace.queue_ms"] = scale * queue / jobs / 1e6
		v["jobtrace.compute_ms"] = scale * compute / jobs / 1e6
		v["jobtrace.stream_ms"] = scale * stream / jobs / 1e6
		var tracedRawMs []float64
		for i, raw := range m.rawMs {
			if m.traced[i] {
				tracedRawMs = append(tracedRawMs, raw)
			}
		}
		// The collector also saw the traced half's warm-up ops; compare
		// means, not sums.
		op := mean(tracedRawMs) * 1e6
		v["jobtrace.partition_gap_ratio"] = math.Abs(op-e2e/jobs) / op
	}
}

// prober runs the fixed layer probes. All of them use the n64-k16 shape of
// the solve and wire workloads unless their name says otherwise.
type prober struct {
	y    *yardstick
	v    map[string]float64
	seed int64
}

const (
	probeN = 64
	probeK = 16
)

// timed calls f reps times between two yardstick bursts and returns the
// median call, in nanoseconds on the nominal machine.
func (p *prober) timed(reps int, f func() error) (float64, error) {
	ns, err := p.takingTurns(reps, f)
	return ns[0], err
}

// perCall is timed for calls too short to time alone: it times batches
// of them and returns one call's share.
func (p *prober) perCall(reps, batch int, f func() error) (float64, error) {
	ns, err := p.timed(reps, func() error {
		for i := 0; i < batch; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	})
	return ns / float64(batch), err
}

// takingTurns times several calls that are to be compared: reps rounds of
// one call of each, so that all see the same host, between two yardstick
// bursts. It returns each one's median call, in nanoseconds on the nominal
// machine.
func (p *prober) takingTurns(reps int, fs ...func() error) ([]float64, error) {
	d := make([][]float64, len(fs))
	ns := make([]float64, len(fs))
	before := p.y.burst()
	for r := 0; r < reps; r++ {
		for i, f := range fs {
			t0 := time.Now()
			if err := f(); err != nil {
				return ns, err
			}
			d[i] = append(d[i], float64(time.Since(t0)))
		}
	}
	ref := adjacentRef(before, p.y.burst())
	for i := range fs {
		ns[i] = normalise(median(d[i]), ref)
	}
	return ns, nil
}

// allocsPerCall is the mean number of heap allocations of a call to f.
func allocsPerCall(reps int, f func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps), nil
}

func (p *prober) fft() error {
	for _, n := range []int{128, 64, 96} { // 96 is not a power of two: the Bluestein path
		plan, err := fft.NewPlan(n)
		if err != nil {
			return err
		}
		src, dst := make([]complex128, n), make([]complex128, n)
		for i := range src {
			src[i] = complex(float64(i%7), float64(i%3))
		}
		ns, err := p.perCall(15, 200, func() error { return plan.Forward(dst, src) })
		if err != nil {
			return err
		}
		p.v[fmt.Sprintf("fft.plan1d_n%d_us", n)] = ns / 1e3
	}

	plan2, err := fft.NewPlan2D(128, 128, 1)
	if err != nil {
		return err
	}
	plane := make([]complex128, 128*128)
	ns, err := p.timed(15, func() error {
		for i := range plane {
			plane[i] = complex(float64(i%11), 0)
		}
		return plan2.ForwardPlane(plane)
	})
	if err != nil {
		return err
	}
	p.v["fft.plan2d_n128_ms"] = ns / 1e6

	plan3, err := fft.NewPlan3D(grid.Cube(probeN), 1)
	if err != nil {
		return err
	}
	vol := grid.NewComplexField(grid.Cube(probeN))
	ns, err = p.timed(7, func() error {
		for i := range vol.Data {
			vol.Data[i] = complex(float64(i%13), 0)
		}
		return plan3.Forward(vol)
	})
	p.v["fft.plan3d_n64_ms"] = ns / 1e6
	return err
}

func (p *prober) convAndSample() error {
	dim := grid.Cube(probeN)
	box := grid.CubeAt(grid.Point{probeK, probeK, probeK}, probeK)
	rng := rand.New(rand.NewSource(p.seed))
	in := boxField(rng, probeK)
	field := fullField(rng, probeN)

	var tree *octree.Tree
	ns, err := p.timed(5, func() (err error) {
		tree, err = sample.DefaultPolicy(box, farRate).Tree(dim)
		return err
	})
	if err != nil {
		return err
	}
	p.v["octree.build_ms"] = ns / 1e6
	p.v["octree.cells"] = float64(tree.CellCount())
	p.v["sample.samples_per_box"] = float64(tree.SampleCount())

	var pw conv.Pointwise
	ns, _ = p.timed(5, func() error { pw = conv.KernelPointwise(dim, kernel); return nil })
	p.v["green.pointwise_build_ms"] = ns / 1e6

	// What a plan set of this shape holds: the 2D plane plan and the 1D z
	// plan. Timed on fft's constructors, because conv.NewPlanSet takes the
	// pruned flag ROADMAP item 3 may delete.
	ns, err = p.timed(5, func() error {
		if _, err := fft.NewPlan2D(probeN, probeN, 1); err != nil {
			return err
		}
		_, err := fft.NewPlan(probeN)
		return err
	})
	if err != nil {
		return err
	}
	p.v["conv.planset_build_ms"] = ns / 1e6

	var l *conv.Local
	ns, err = p.timed(5, func() (err error) {
		l, err = conv.NewLocal(dim, box, tree, pw, conv.Config{Workers: 1})
		return err
	})
	if err != nil {
		return err
	}
	p.v["conv.local_build_ms"] = ns / 1e6

	out := sample.NewCompressed(tree)
	run := func() error { _, _, err := l.RunInto(in, out); return err }
	if err := run(); err != nil {
		return err
	}
	if p.v["conv.allocs_per_op"], err = allocsPerCall(5, run); err != nil {
		return err
	}
	p.v["sample.compression_ratio"] = out.CompressionRatio()

	var enc []byte
	ns, err = p.timed(7, func() (err error) { enc, err = out.EncodeBytes(); return err })
	if err != nil {
		return err
	}
	p.v["sample.encode_ms"] = ns / 1e6
	ns, err = p.timed(7, func() error { _, err := sample.ReadCompressed(bytes.NewReader(enc)); return err })
	if err != nil {
		return err
	}
	p.v["sample.decode_ms"] = ns / 1e6
	dst := grid.NewField(dim)
	ns, err = p.timed(7, func() error { return out.AddTo(dst, 1) })
	if err != nil {
		return err
	}
	p.v["sample.addto_ms"] = ns / 1e6

	// The plain single-threaded run of the same problem.
	ns, err = p.timed(3, func() error { _, err := conv.Baseline(field, kernel, 1); return err })
	p.v["conv.dense_baseline_ms"] = ns / 1e6
	return err
}

// decomposedAndFleet probes the whole algorithm on a grid of 32³ in boxes
// of 8³: as many boxes as the solve workload has, each a tenth of the
// work, so that five repetitions fit in a second.
func (p *prober) decomposedAndFleet() error {
	const probeN, probeK = 32, 8
	dim := grid.Cube(probeN)
	field := fullField(rand.New(rand.NewSource(p.seed)), probeN)

	// Accumulation alone: every box's compressed result, gathered from a
	// dense field, summed back.
	boxes, err := grid.Decompose(dim, probeK)
	if err != nil {
		return err
	}
	results := make([]*sample.Compressed, len(boxes))
	for i, b := range boxes {
		tree, err := sample.DefaultPolicy(b, farRate).Tree(dim)
		if err != nil {
			return err
		}
		if results[i], err = sample.Compress(field, tree); err != nil {
			return err
		}
	}
	ns, err := p.timed(5, func() error { _, err := conv.Accumulate(dim, results); return err })
	if err != nil {
		return err
	}
	p.v["conv.accumulate_ms"] = ns / 1e6

	// The same field through conv.Decomposed.Run and through Solve on one
	// device and on two.
	dc := conv.Decomposed{Kernel: kernel, SubSize: probeK, FarRate: farRate, Cfg: conv.Config{Workers: 1}}
	calls := []func() error{func() error { _, _, err := dc.Run(field); return err }}
	for devices := 1; devices <= 2; devices++ {
		devs := make([]*gpu.Device, devices)
		for i := range devs {
			devs[i] = gpu.V100_32GB()
		}
		eng, err := fleet.NewEngine(fleet.EngineOptions{
			Fleet:  fleet.Options{Devices: devs, N: probeN, FarRate: farRate},
			Kernel: kernel, SubSize: probeK, Conv: conv.Config{Workers: 1},
		})
		if err != nil {
			return err
		}
		defer eng.Close()
		solve := func() error { _, _, err := eng.Solve("probe", field); return err }
		if err := solve(); err != nil { // warm the plan set
			return err
		}
		calls = append(calls, solve)
	}
	t, err := p.takingTurns(5, calls...)
	if err != nil {
		return err
	}
	decomposed, one, two := t[0], t[1], t[2]
	p.v["conv.decomposed_ms"] = decomposed / 1e6
	p.v["fleet.solve_overhead_ms"] = (one - decomposed) / 1e6
	p.v["fleet.scaling_eff_2dev"] = one / (2 * two)

	sched, err := fleet.NewScheduler(fleet.Options{
		Devices: []*gpu.Device{gpu.V100_32GB(), gpu.V100_32GB()}, N: probeN, FarRate: farRate,
	})
	if err != nil {
		return err
	}
	defer sched.Close()
	fp := sched.Footprint(probeK)
	ns, err = p.perCall(9, 1000, func() error {
		di, err := sched.Place(probeK, fp, 0)
		if err != nil {
			return err
		}
		sched.Release(di, fp)
		return nil
	})
	p.v["fleet.place_us"] = ns / 1e3
	return err
}

func (p *prober) serve() error {
	inst, err := setupServe(boxInputs(p.seed, serveK, servedBoxes), nil)
	if err != nil {
		return err
	}
	defer inst.close()
	in := inst.(serveInst)

	// Warm closed-loop Submit against the stage times it reports: what is
	// left is admission, dispatch, placement, pooling and the wake-ups.
	var over []float64
	before := p.y.burst()
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		info, err := in.op(i)
		if err != nil {
			return err
		}
		st := info.stats
		over = append(over, float64(time.Since(t0)-st.StageA-st.StageB-st.StageC))
	}
	p.v["serve.submit_overhead_us"] = normalise(median(over), adjacentRef(before, p.y.burst())) / 1e3

	i := 0
	if p.v["serve.allocs_per_op"], err = allocsPerCall(200, func() error { i++; _, err := in.op(i); return err }); err != nil {
		return err
	}

	// Capacity: two callers that never wait, for about a second.
	const callers, each = 2, 250
	var wg sync.WaitGroup
	errs := make([]error, callers)
	before = p.y.burst()
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each && errs[c] == nil; i++ {
				_, errs[c] = in.op(c*each + i)
			}
		}(c)
	}
	wg.Wait()
	d := float64(time.Since(t0))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	p.v["serve.capacity_ops_s"] = callers * each / (normalise(d, adjacentRef(before, p.y.burst())) / 1e9)
	return nil
}

func (p *prober) wire() error {
	inst, err := setupWire(boxInputs(p.seed, wireK, servedBoxes), nil)
	if err != nil {
		return err
	}
	defer inst.close()
	in := inst.(*wireInst)

	// The same boxes through the wire and through Submit in process.
	i, j := 0, 0
	t, err := p.takingTurns(16,
		func() error { i++; _, err := in.op(i); return err },
		func() error { j++; _, err := in.submitInProcess(j); return err })
	if err != nil {
		return err
	}
	p.v["wire.overhead_ms"] = (t[0] - t[1]) / 1e6

	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(p.seed)).Read(payload)
	var frame []byte
	ns, _ := p.perCall(9, 20, func() error {
		frame = wire.AppendFrame(frame[:0], wire.FrameChunk, payload)
		return nil
	})
	p.v["wire.frame_encode_us"] = ns / 1e3
	ns, err = p.perCall(9, 20, func() error {
		_, _, err := wire.ReadFrame(bytes.NewReader(frame))
		return err
	})
	p.v["wire.frame_decode_us"] = ns / 1e3
	return err
}

func (p *prober) cluster() error {
	const workers = 4
	b, err := cluster.LowCommExchangeBytes(grid.Cube(probeN), workers, probeK, farRate)
	if err != nil {
		return err
	}
	p.v["cluster.lowcomm_exchange_bytes"] = float64(b)
	// Against the two transposes of a distributed FFT convolution (Eq. 1).
	p.v["cluster.comm_reduction_x"] = 2 * float64(cluster.FFTTransposeFabricBytes(probeN, workers)) / float64(b)
	return nil
}

// ---- counters the instances' layers keep ----

func (in *solveInst) layerCounts() map[string]float64 {
	tr := in.eng.Scheduler().Trace()
	return map[string]float64{
		"fleet.batch_runs_per_op": float64(tr.CounterValue("fleet.batch_runs")) / float64(in.ops),
		"fleet.steals_per_op":     float64(tr.CounterValue("fleet.steals")) / float64(in.ops),
	}
}

func (s *served) layerCounts() map[string]float64 {
	tr := s.eng.Trace()
	hits, misses := float64(tr.CounterValue("serve.plan_cache_hits")), float64(tr.CounterValue("serve.plan_cache_misses"))
	v := map[string]float64{}
	if hits+misses > 0 {
		v["serve.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	if sub := float64(tr.CounterValue("serve.jobs_submitted")); sub > 0 {
		v["serve.rejected_ratio"] = float64(tr.CounterValue("serve.jobs_rejected")) / sub
	}
	return v
}

func (in *wireInst) layerCounts() map[string]float64 {
	v := in.served.layerCounts()
	ops := float64(in.ops)
	v["wire.chunks_per_op"] = float64(in.srv.Trace().CounterValue("wire.chunks_sent")) / ops
	v["wire.socket_bytes_per_op"] = float64(in.socket.Load()) / ops
	v["wire.reconnects"] = float64(in.client.Trace().CounterValue("wire.client.reconnects"))
	v["wire.retries"] = float64(in.client.Trace().CounterValue("wire.client.retries"))
	return v
}
