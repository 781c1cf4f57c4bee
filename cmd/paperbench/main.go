// Command paperbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	paperbench -table 1      Table 1: memory, traditional vs local FFT
//	paperbench -table 2      Table 2: allowable k per GPU
//	paperbench -table 3      Table 3: GPU-vs-FFTW speedup model
//	paperbench -table 4      Table 4: estimated vs actual GPU memory
//	paperbench -fig 1        Fig. 1: all-to-all rounds/bytes, measured + Eq. 1/6 model
//	paperbench -fig 3        Fig. 3: octree sampling pattern statistics
//	paperbench -sec54        §5.4: batch-parameter study
//	paperbench -measure      §5.3: measured approximation error & compression (pure Go)
//	paperbench -massif       measured MASSIF per-iteration communication, Alg. 1 vs Alg. 2
//	paperbench -faults       fault-injection study: lossy-fabric convolution + crashed MASSIF solve
//	paperbench -chaos        self-healing study: crash/straggler/OOM schedules against the healing solve
//	paperbench -fleet        §5.1: DGX-2 batch-throughput model
//	paperbench -sweep        §5.4: measured accuracy/compression tradeoff across far rates
//	paperbench -all          everything above
//
// Any mode takes -trace f (Chrome trace of the run) and -serve addr (live
// /metrics). Serving latency and throughput are not measured here: the
// one load generator and timing gate is `go run ./bench`.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"lowcomm3d/internal/ckpt"
	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/massif"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/report"
	"lowcomm3d/internal/sample"
	"lowcomm3d/internal/supervise"
	"lowcomm3d/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	var (
		table   = flag.Int("table", 0, "regenerate paper table 1-4")
		fig     = flag.Int("fig", 0, "regenerate paper figure 1 or 3")
		sec54   = flag.Bool("sec54", false, "regenerate the §5.4 batch study")
		measure = flag.Bool("measure", false, "measured error/compression at pure-Go scales")
		massifC = flag.Bool("massif", false, "measured MASSIF per-iteration communication, Alg. 1 vs Alg. 2")
		faults  = flag.Bool("faults", false, "fault-injection study: lossy-fabric convolution + crashed MASSIF solve")
		chaos   = flag.Bool("chaos", false, "self-healing study: crash/straggler/OOM schedules against the healing solve")
		fleet   = flag.Bool("fleet", false, "DGX-2 batch-throughput model (§5.1 batching claim)")
		sweep   = flag.Bool("sweep", false, "measured accuracy/compression tradeoff across far rates (§5.4)")
		all     = flag.Bool("all", false, "run everything")
		traceTo = flag.String("trace", "", "write a Chrome trace (chrome://tracing / Perfetto JSON) of the run to this file")
		serve   = flag.String("serve", "", "serve live telemetry (/metrics, /healthz, /flight, /debug/pprof) on this address, e.g. :8080, and block after the run")
	)
	flag.StringVar(&ckptDir, "ckpt-dir", "",
		"durable checkpoint directory for the -chaos study (default: a fresh directory under the OS temp dir)")
	flag.Parse()
	if *traceTo != "" || *serve != "" {
		tr = obs.New()
	}
	// The chaos study always records a per-rank flight recorder and dumps
	// its postmortem next to the trace artifact; serve mode exposes the
	// recorder live at /flight.
	if *chaos || *all || *serve != "" {
		flight = telemetry.NewRecorder(8, 0)
	}
	postmortemPath = "paperbench-chaos.postmortem.txt"
	if *traceTo != "" {
		postmortemPath = strings.TrimSuffix(*traceTo, filepath.Ext(*traceTo)) + ".postmortem.txt"
	}
	var srv *telemetry.Server
	if *serve != "" {
		s, err := telemetry.Serve(*serve, tr, flight)
		if err != nil {
			log.Fatal(err)
		}
		srv = s
		log.Printf("telemetry: serving http://%s/metrics (plus /healthz, /flight, /debug/pprof)", srv.Addr())
	}

	ran := false
	run := func(cond bool, f func() error) {
		if !cond && !*all {
			return
		}
		ran = true
		if err := f(); err != nil {
			// A failed study still leaves the flight-recorder postmortem
			// behind — the whole point of the recorder is explaining the
			// run that did not finish.
			if flight != nil {
				if derr := flight.DumpFile(postmortemPath); derr == nil {
					log.Printf("flight-recorder postmortem written to %s", postmortemPath)
				}
			}
			log.Fatal(err)
		}
		fmt.Println()
	}
	run(*table == 1, table1)
	run(*table == 2, table2)
	run(*table == 3, table3)
	run(*table == 4, table4)
	run(*fig == 1, fig1)
	run(*fig == 3, fig3)
	run(*sec54, batchStudy)
	run(*measure, measured)
	run(*massifC, massifComm)
	run(*faults, faultStudy)
	run(*chaos, chaosStudy)
	run(*fleet, fleetStudy)
	run(*sweep, rateSweep)
	if !ran && *serve == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *traceTo != "" {
		out, err := os.Create(*traceTo)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChromeTrace(out); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)", *traceTo)
	}
	if srv != nil {
		log.Printf("telemetry: run complete, still serving http://%s/ — Ctrl-C to exit", srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		srv.Close()
	}
}

// tr is the optional run-wide trace; nil (no -trace or -serve flag) makes
// every instrumentation call a no-op.
var tr *obs.Trace

// flight is the per-rank flight recorder, active for chaos and serve runs
// (nil otherwise; all methods are nil-safe). postmortemPath is where the
// chaos study dumps it — next to the Chrome trace artifact when -trace is
// set.
var flight *telemetry.Recorder
var postmortemPath string

func table1() error {
	t := report.New("Table 1 — memory: traditional full-grid FFT vs domain-local FFT (GB)",
		"N", "k", "traditional", "paper", "local (ours)", "paper")
	for _, r := range gpu.Table1() {
		t.Add(r.N, r.K, r.TraditionalGB, r.PaperTraditional, r.LocalGB, r.PaperLocal)
	}
	t.Render(os.Stdout)
	return nil
}

func table2() error {
	rows, err := gpu.Table2()
	if err != nil {
		return err
	}
	t := report.New("Table 2 — largest sub-domain k fitting a single GPU",
		"N", "allowable k", "paper", "device")
	for _, r := range rows {
		t.Add(r.N, r.AllowableK, r.PaperK, r.Device)
	}
	t.Render(os.Stdout)
	return nil
}

func table3() error {
	rows, err := gpu.Table3()
	if err != nil {
		return err
	}
	t := report.New("Table 3 — runtime model: proposed GPU pipeline vs single-CPU FFTW",
		"N", "k", "r", "ours (ms)", "paper", "FFTW (ms)", "paper", "speedup", "paper")
	for _, r := range rows {
		t.Add(r.N, r.K, r.R, r.OursMs, r.PaperOursMs, r.FFTWMs, r.PaperFFTWMs, r.Speedup, r.PaperSpeedup)
	}
	t.Render(os.Stdout)
	return nil
}

func table4() error {
	rows, err := gpu.Table4()
	if err != nil {
		return err
	}
	t := report.New("Table 4 — estimated vs actual GPU memory (cuFFT temporaries) (GB)",
		"N", "k", "r", "estimated", "paper", "actual", "paper", "ratio", "paper")
	for _, r := range rows {
		t.Add(r.N, r.K, r.R, r.EstimatedGB, r.PaperEstimate, r.ActualGB, r.PaperActual,
			r.Ratio, r.PaperActual/r.PaperEstimate)
	}
	t.Render(os.Stdout)
	return nil
}

func fig1() error {
	// Measured: real distributed convolutions on the simulated cluster,
	// the eight 32³ sub-domains of a 64³ grid on four and on eight workers.
	n, k := 64, 32
	f := grid.NewField(grid.Cube(n))
	for i := range f.Data {
		f.Data[i] = float64(i%17) / 17
	}
	kernel := green.Gaussian{Sigma: 2}
	t := report.New(fmt.Sprintf("Fig. 1 — measured communication, N=%d k=%d (simulated cluster)", n, k),
		"P", "pipeline", "all-to-all rounds", "messages", "bytes", "α-β time")
	for _, p := range []int{4, 8} {
		for _, pl := range []struct {
			name   string
			square bool // a pencil grid needs a square worker count
			run    func(c *cluster.Cluster) error
		}{
			{"traditional FFT (pencil, Eq. 1)", true, func(c *cluster.Cluster) error {
				_, err := cluster.PencilFFTConvolve(c, f, kernel)
				return err
			}},
			{"traditional FFT (slab)", false, func(c *cluster.Cluster) error {
				_, err := cluster.DistFFTConvolve(c, f, kernel)
				return err
			}},
			{"ours (low-comm)", false, func(c *cluster.Cluster) error {
				_, err := cluster.LowCommConvolve(c, f, kernel, k, 16, conv.Config{Trace: tr})
				return err
			}},
		} {
			if q := int(math.Sqrt(float64(p))); pl.square && q*q != p {
				continue
			}
			c, err := cluster.NewWithOptions(p, cluster.DefaultParams(), cluster.Options{Trace: tr})
			if err != nil {
				return err
			}
			if err := pl.run(c); err != nil {
				return err
			}
			b, m, r, sec := c.Stats.Snapshot()
			t.AddCells(fmt.Sprint(p), pl.name, fmt.Sprint(r), fmt.Sprint(m), report.Bytes(b), report.Seconds(sec))
		}
	}
	t.Render(os.Stdout)
	tree, err := sample.DefaultPolicy(grid.CubeAt(grid.Point{}, k), 16).Tree(f.Dim)
	if err != nil {
		return err
	}
	fmt.Printf("ours: a box's result stores %d samples, one per sampled point (%d lattice slots); a peer is sent each sample its boxes read once, values only\n",
		tree.SampleCount(), tree.SlotCount())

	// Analytic: Eq. 1 vs Eq. 6 at the paper's scales.
	params := cluster.DefaultParams()
	rows, err := params.CommModel([]int{1024, 2048, 4096, 8192}, 128, 8, 1024)
	if err != nil {
		return err
	}
	t2 := report.New("Fig. 1 / Eq. 1 vs Eq. 6 — per-node communication time model (k=128, r=8, P=1024)",
		"N", "T_Comm,FFT (Eq.1)", "T_ours (Eq.6)", "ratio")
	for _, r := range rows {
		t2.AddCells(fmt.Sprint(r.N), report.Seconds(r.TraditionalSec), report.Seconds(r.OursSec),
			fmt.Sprintf("%.1fx", r.Ratio))
	}
	fmt.Println()
	t2.Render(os.Stdout)
	return nil
}

func fig3() error {
	// The paper's Fig. 3 setting: 32³ sub-domain in a 128³ grid.
	n, k := 128, 32
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{(n - k) / 2, (n - k) / 2, (n - k) / 2}, k)
	pol := sample.DefaultPolicy(sub, 16)
	tree, err := pol.Tree(dim)
	if err != nil {
		return err
	}
	rateCount := map[int]int{}
	rateVolume := map[int]int{}
	rateSlots := map[int]int{}
	for _, c := range tree.Cells {
		rateCount[c.Rate]++
		rateVolume[c.Rate] += c.Box.Volume()
		rateSlots[c.Rate] += c.SlotCount()
	}
	// A point shared by cells of several rates is stored with the cell of
	// its first slot.
	rateStored := map[int]int{}
	tree.ForEachPoint(func(ci, _, _, _, _ int) { rateStored[tree.Cells[ci].Rate]++ })
	t := report.New(fmt.Sprintf("Fig. 3 — octree sampling pattern: %d³ sub-domain in %d³ grid", k, n),
		"rate r", "cells", "volume", "vol %", "slots", "stored")
	for _, r := range []int{1, 2, 8, 16} {
		if rateCount[r] == 0 {
			continue
		}
		t.Add(r, rateCount[r], rateVolume[r],
			100*float64(rateVolume[r])/float64(dim.Len()), rateSlots[r], rateStored[r])
	}
	t.Render(os.Stdout)
	fmt.Printf("\ntotal: %d cells, %d samples stored (one per point; %d lattice slots) of %d grid points (%.1fx compression), metadata %s\n",
		tree.CellCount(), tree.SampleCount(), tree.SlotCount(), dim.Len(),
		float64(dim.Len())/float64(tree.SampleCount()), report.Bytes(int64(tree.MetadataBytes())))
	fmt.Println("(render the pattern itself with cmd/octviz)")
	return nil
}

func batchStudy() error {
	rows, err := gpu.BatchStudy()
	if err != nil {
		return err
	}
	t := report.New("§5.4 — speedup from doubling the pencil batch B (model)",
		"N", "k", "r", "B from", "B to", "gain %", "paper %")
	for _, r := range rows {
		t.Add(r.N, r.K, r.R, r.FromB, r.ToB, r.SpeedupPct, r.PaperPct)
	}
	t.Render(os.Stdout)
	return nil
}

func measured() error {
	t := report.New("§5.3 — measured (pure Go): local pipeline vs dense baseline",
		"N", "k", "far r", "samples stored", "rel L2 error", "L∞ error", "Taylor bound", "compression", "local (ms)", "baseline (ms)")
	for _, c := range []struct {
		n, k, far int
		sigma     float64
	}{
		{32, 8, 8, 1.5},
		{64, 16, 16, 2},
		{128, 32, 16, 2},
	} {
		dim := grid.Cube(c.n)
		sub := grid.CubeAt(grid.Point{(c.n - c.k) / 2, (c.n - c.k) / 2, (c.n - c.k) / 2}, c.k)
		kernel := green.Gaussian{Sigma: c.sigma}
		tree, err := sample.DefaultPolicy(sub, c.far).Tree(dim)
		if err != nil {
			return err
		}
		local, err := conv.NewLocal(dim, sub, tree, conv.KernelPointwise(dim, kernel), conv.Config{Trace: tr})
		if err != nil {
			return err
		}
		// Smooth deterministic input (≤1 cycle per sub-domain edge), the
		// field class MASSIF produces and the sampler is designed for.
		subField := grid.NewField(grid.Cube(c.k))
		for z := 0; z < c.k; z++ {
			for y := 0; y < c.k; y++ {
				for x := 0; x < c.k; x++ {
					fx := float64(x) / float64(c.k)
					fy := float64(y) / float64(c.k)
					fz := float64(z) / float64(c.k)
					subField.Set(x, y, z,
						math.Sin(2*math.Pi*fx)*math.Cos(math.Pi*fy)+0.5*math.Sin(math.Pi*fz))
				}
			}
		}
		start := time.Now()
		res, st, err := local.Run(subField)
		if err != nil {
			return err
		}
		localMs := float64(time.Since(start).Microseconds()) / 1e3
		start = time.Now()
		want, err := conv.BaselineSubdomain(dim, sub, subField, kernel, 0)
		if err != nil {
			return err
		}
		baseMs := float64(time.Since(start).Microseconds()) / 1e3
		dense, err := res.Reconstruct()
		if err != nil {
			return err
		}
		rel, err := grid.RelL2(dense, want)
		if err != nil {
			return err
		}
		// The §5.3 Taylor bound of the result's octree for the dense
		// answer's curvature; an error above it fails the run.
		linf, bound, err := res.VerifyBound(want)
		if err != nil {
			return err
		}
		t.AddCells(fmt.Sprint(c.n), fmt.Sprint(c.k), fmt.Sprint(c.far), fmt.Sprint(st.SampleCount),
			fmt.Sprintf("%.4f", rel), fmt.Sprintf("%.2e", linf), fmt.Sprintf("%.2e", bound),
			fmt.Sprintf("%.1fx", st.Compression),
			fmt.Sprintf("%.1f", localMs), fmt.Sprintf("%.1f", baseMs))
	}
	t.Render(os.Stdout)
	return nil
}

func massifComm() error {
	// Both MASSIF solvers on the simulated cluster for a fixed iteration
	// budget: the per-iteration communication the paper's Fig. 1 argues
	// about, measured on the full tensor pipeline.
	n, k, p, iters := 32, 16, 4, 3
	l1, m1 := green.LameFromENu(210, 0.3)
	l2, m2 := green.LameFromENu(70, 0.3)
	m, err := massif.NewMicrostructure(grid.Cube(n),
		massif.Phase{Lambda: l1, Mu: m1}, massif.Phase{Lambda: l2, Mu: m2})
	if err != nil {
		return err
	}
	if err := m.SetSphere(grid.Point{16, 16, 16}, 8, 1); err != nil {
		return err
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	opt := massif.Options{Tol: 1e-12, MaxIter: iters, Trace: tr}

	cRef, err := cluster.NewWithOptions(p, cluster.DefaultParams(), cluster.Options{Trace: tr})
	if err != nil {
		return err
	}
	if _, err := massif.SolveReferenceDistributed(cRef, m, E, opt); err != nil {
		return err
	}
	rb, _, rr, rs := cRef.Stats.Snapshot()

	cLow, err := cluster.NewWithOptions(p, cluster.DefaultParams(), cluster.Options{Trace: tr})
	if err != nil {
		return err
	}
	if _, err := massif.SolveLowCommDistributed(cLow, m, E, massif.LowCommOptions{
		Options: opt, SubSize: k, FarRate: 8,
	}); err != nil {
		return err
	}
	lb, _, lr, ls := cLow.Stats.Snapshot()

	t := report.New(fmt.Sprintf("MASSIF per-iteration communication, N=%d k=%d P=%d (%d iterations measured)", n, k, p, iters),
		"solver", "all-to-all rounds/iter", "bytes/iter", "α-β time/iter")
	t.AddCells("Algorithm 1 (slab FFTs)", fmt.Sprintf("%d", rr/int64(iters)),
		report.Bytes(rb/int64(iters)), report.Seconds(rs/float64(iters)))
	t.AddCells("Algorithm 2 (ours)", fmt.Sprintf("%d", lr/int64(iters)),
		report.Bytes(lb/int64(iters)), report.Seconds(ls/float64(iters)))
	t.Render(os.Stdout)
	return nil
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b *grid.Field) bool {
	if a.Dim != b.Dim {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func faultStudy() error {
	// Part 1 — the single sparse exchange of the low-comm convolution on a
	// lossy fabric. Transient faults (drops, corruption, duplicates, delays)
	// heal through the deadline/retry layer; a crashed worker aborts the
	// generation and the convolution runs again on a reset epoch. Every
	// schedule must reproduce the fault-free field bit for bit, or the study
	// fails.
	n, k, p := 32, 8, 4
	f := grid.NewField(grid.Cube(n))
	for i := range f.Data {
		f.Data[i] = float64(i%17) / 17
	}
	kernel := green.Gaussian{Sigma: 2}
	cfg := conv.Config{}

	cRef, err := cluster.New(p, cluster.DefaultParams())
	if err != nil {
		return err
	}
	ref, err := cluster.LowCommConvolve(cRef, f, kernel, k, 16, cfg)
	if err != nil {
		return err
	}

	t := report.New(fmt.Sprintf("Fault injection — low-comm convolution on a lossy fabric, N=%d k=%d P=%d (seeded schedules)", n, k, p),
		"fault plan", "field vs fault-free", "generations", "retransmits", "timeouts", "dead")
	var crashStats cluster.FaultStats
	for _, pl := range []struct {
		name string
		plan cluster.FaultPlan
	}{
		{"drop 10%", cluster.FaultPlan{Seed: 7, DropProb: 0.10}},
		{"drop 30%", cluster.FaultPlan{Seed: 7, DropProb: 0.30}},
		{"corrupt 20%", cluster.FaultPlan{Seed: 7, CorruptProb: 0.20}},
		{"dup 30% + delay 30%", cluster.FaultPlan{Seed: 7, DupProb: 0.30, DelayProb: 0.30, Delay: time.Millisecond}},
		{"crash worker 3 at op 1", cluster.FaultPlan{Seed: 7, Crashes: []cluster.CrashPoint{{Worker: 3, Op: 1}}}},
	} {
		inj := cluster.NewFaultInjector(pl.plan)
		// Deadline well above scheduler noise: the injected-fault schedule
		// is seeded, but a too-tight deadline adds genuine (timing-
		// dependent) timeouts to the retry counters on a loaded machine.
		c, err := cluster.NewWithOptions(p, cluster.DefaultParams(), cluster.Options{
			RecvTimeout: 50 * time.Millisecond,
			RetryBudget: 4,
			Transport:   inj,
		})
		if err != nil {
			return err
		}
		res, err := cluster.LowCommConvolve(c, f, kernel, k, 16, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", pl.name, err)
		}
		if !sameBits(res.Field, ref.Field) {
			return fmt.Errorf("%s: field differs from the fault-free run", pl.name)
		}
		fs := c.Stats.FaultSnapshot()
		if len(pl.plan.Crashes) > 0 {
			crashStats = fs
		}
		t.AddCells(pl.name, "bit-identical", fmt.Sprint(res.Generations),
			fmt.Sprint(fs.Retransmits), fmt.Sprint(fs.Timeouts), fmt.Sprint(fs.DeadWorkers))
	}
	t.Render(os.Stdout)
	fmt.Println()
	report.FaultTable("Transport counters — crash schedule",
		crashStats.Retransmits, crashStats.Timeouts, crashStats.CorruptDropped,
		crashStats.DupDropped, crashStats.DeadWorkers).Render(os.Stdout)

	// Part 2 — MASSIF with a worker crashing mid-solve: worker 3 dies inside
	// iteration 2's sparse all-to-all, the generation aborts, and every rank
	// — worker 3 respawned — resumes from its iteration-2 checkpoint (held in
	// memory), so the solve ends with the healthy solve's answer.
	l1, m1 := green.LameFromENu(210, 0.3)
	l2, m2 := green.LameFromENu(70, 0.3)
	mst, err := massif.NewMicrostructure(grid.Cube(16),
		massif.Phase{Lambda: l1, Mu: m1}, massif.Phase{Lambda: l2, Mu: m2})
	if err != nil {
		return err
	}
	if err := mst.SetSphere(grid.Point{4, 4, 4}, 2, 1); err != nil {
		return err
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0.002}
	opt := massif.LowCommOptions{
		Options: massif.Options{Tol: 1e-4, MaxIter: 40},
		SubSize: 8, FullRes: true,
	}
	serial, err := massif.SolveLowComm(mst, E, opt)
	if err != nil {
		return err
	}
	inj := cluster.NewFaultInjector(cluster.FaultPlan{Seed: 1, Crashes: []cluster.CrashPoint{{Worker: 3, Op: 5}}})
	cm, err := cluster.NewWithOptions(4, cluster.DefaultParams(), cluster.Options{
		RecvTimeout: 20 * time.Millisecond,
		RetryBudget: 3,
		Transport:   inj,
	})
	if err != nil {
		return err
	}
	dist, err := massif.SolveLowCommDistributed(cm, mst, E, opt)
	if err != nil {
		return err
	}
	rel, err := grid.RelL2Tensor(dist.Strain, serial.Strain)
	if err != nil {
		return err
	}
	fmt.Println()
	t2 := report.New("MASSIF under a mid-solve crash — N=16 k=8 P=4, worker 3 killed in iteration 2's all-to-all",
		"solve", "iterations", "converged", "generations", "respawned ranks", "rel L2 strain vs serial")
	t2.AddCells("serial (fault-free reference)", fmt.Sprint(serial.Iterations),
		fmt.Sprint(serial.Converged), "1", "[]", "0")
	t2.AddCells("distributed, healed", fmt.Sprint(dist.Iterations),
		fmt.Sprint(dist.Converged), fmt.Sprint(dist.Heal.Generations),
		fmt.Sprint(dist.Heal.Respawned), fmt.Sprintf("%.2g", rel))
	t2.Render(os.Stdout)
	return nil
}

// ckptDir is where the -chaos study keeps its durable checkpoints
// (-ckpt-dir flag); empty selects a fresh OS temp directory.
var ckptDir string

func chaosStudy() error {
	// The self-healing solve under seeded chaos: worker crashes (including
	// rank 0) respawn from durable checkpoints on disk, an injected
	// straggler is speculatively re-executed by an idle peer, and an
	// OOM-constrained fleet auto-refines k instead of failing. The same
	// problem as the -faults crash study, which heals from checkpoints held
	// in memory.
	base := ckptDir
	if base == "" {
		d, err := os.MkdirTemp("", "paperbench-chaos-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		base = d
	}
	l1, m1 := green.LameFromENu(210, 0.3)
	l2, m2 := green.LameFromENu(70, 0.3)
	mst, err := massif.NewMicrostructure(grid.Cube(16),
		massif.Phase{Lambda: l1, Mu: m1}, massif.Phase{Lambda: l2, Mu: m2})
	if err != nil {
		return err
	}
	if err := mst.SetSphere(grid.Point{4, 4, 4}, 2, 1); err != nil {
		return err
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0.002}
	opt := massif.LowCommOptions{
		Options: massif.Options{Tol: 1e-4, MaxIter: 40, Trace: tr},
		SubSize: 8, FullRes: true,
	}
	serial, err := massif.SolveLowComm(mst, E, opt)
	if err != nil {
		return err
	}

	t := report.New("Self-healing MASSIF under seeded chaos — N=16 k=8, crashes respawn from durable checkpoints",
		"schedule", "P", "generations", "respawned", "spec wins", "k refine", "ckpt bytes", "converged", "rel L2 vs serial")
	addRow := func(name string, p int, res *massif.LowCommResult) error {
		rel, err := grid.RelL2Tensor(res.Strain, serial.Strain)
		if err != nil {
			return err
		}
		h := res.Heal
		t.AddCells(name, fmt.Sprint(p), fmt.Sprint(h.Generations),
			fmt.Sprint(h.Respawned), fmt.Sprint(h.SpeculativeWins),
			fmt.Sprintf("k=%d (%d)", h.SubSize, h.KRefinements),
			report.Bytes(h.CheckpointBytes), fmt.Sprint(res.Converged),
			fmt.Sprintf("%.4f", rel))
		return nil
	}
	healTrace := func() *obs.Trace {
		if tr != nil {
			return tr
		}
		return obs.New()
	}

	for _, sc := range []struct {
		name    string
		p       int
		crashes []cluster.CrashPoint
	}{
		{"crash worker 1, iter 1", 2, []cluster.CrashPoint{{Worker: 1, Op: 3}}},
		{"crash root, then worker 2", 4, []cluster.CrashPoint{{Worker: 0, Op: 5}, {Worker: 2, Op: 9}}},
		{"crash workers 3 and 5", 7, []cluster.CrashPoint{{Worker: 3, Op: 3}, {Worker: 5, Op: 9}}},
	} {
		store, err := ckpt.NewStore(filepath.Join(base, fmt.Sprintf("p%d", sc.p)), healTrace())
		if err != nil {
			return err
		}
		inj := cluster.NewFaultInjector(cluster.FaultPlan{Seed: 7, Crashes: sc.crashes})
		c, err := cluster.NewWithOptions(sc.p, cluster.DefaultParams(), cluster.Options{
			RecvTimeout: 50 * time.Millisecond,
			RetryBudget: 4,
			Transport:   inj,
			Trace:       tr,
			Flight:      flight,
		})
		if err != nil {
			return err
		}
		hopt := opt
		hopt.Heal = &massif.HealOptions{
			Store:     store,
			Supervise: supervise.Options{Trace: healTrace()},
			Flight:    flight,
		}
		res, err := massif.SolveLowCommDistributed(c, mst, E, hopt)
		if err != nil {
			return err
		}
		if err := addRow(sc.name, sc.p, res); err != nil {
			return err
		}
	}

	// Straggler schedule: a deterministic 1.5s sleep on worker 1; the
	// idle peer re-executes its sub-domains from the durable checkpoint.
	var schedule *supervise.ChaosSchedule
	for seed := uint64(1); seed < 10000; seed++ {
		cs := &supervise.ChaosSchedule{Seed: seed, StraggleProb: 0.25, StraggleDelay: 1500 * time.Millisecond}
		hits, ok := 0, true
		for it := 0; it < 6 && ok; it++ {
			if cs.Delay(0, it) > 0 {
				ok = false
			}
			if cs.Delay(1, it) > 0 {
				if it < 2 {
					ok = false
				}
				hits++
			}
		}
		if ok && hits == 1 {
			schedule = cs
			break
		}
	}
	store, err := ckpt.NewStore(filepath.Join(base, "straggler"), healTrace())
	if err != nil {
		return err
	}
	c, err := cluster.NewWithOptions(2, cluster.DefaultParams(), cluster.Options{
		RecvTimeout: 500 * time.Millisecond,
		RetryBudget: 4,
		Trace:       tr,
		Flight:      flight,
	})
	if err != nil {
		return err
	}
	sopt := opt
	sopt.MaxIter = 6
	sopt.Tol = 1e-9
	sopt.FullRes = false
	sopt.FarRate = 4
	sopt.Heal = &massif.HealOptions{
		Store:     store,
		Chaos:     schedule,
		Supervise: supervise.Options{Trace: healTrace()},
		Flight:    flight,
	}
	res, err := massif.SolveLowCommDistributed(c, mst, E, sopt)
	if err != nil {
		return err
	}
	if err := addRow("straggle worker 1 by 1.5s", 2, res); err != nil {
		return err
	}

	// OOM schedule: V100-16GB fleet pre-filled so the k=8 plan does not
	// fit but the k=4 plan does — admission refines instead of failing.
	oopt := opt
	oopt.MaxIter = 6
	oopt.FullRes = false
	oopt.FarRate = 4
	charge8 := massif.HealWorkerBytes(mst.Dim, 2, oopt)
	o4 := oopt
	o4.SubSize = 4
	charge4 := massif.HealWorkerBytes(mst.Dim, 2, o4)
	free := charge4 + (charge8-charge4)/2
	devs := make([]*gpu.Device, 2)
	for i := range devs {
		d := gpu.V100_16GB()
		if _, err := d.Alloc(d.Capacity - free); err != nil {
			return err
		}
		devs[i] = d
	}
	store, err = ckpt.NewStore(filepath.Join(base, "oom"), healTrace())
	if err != nil {
		return err
	}
	c, err = cluster.NewWithOptions(2, cluster.DefaultParams(), cluster.Options{Trace: tr, Flight: flight})
	if err != nil {
		return err
	}
	oopt.Heal = &massif.HealOptions{
		Store:     store,
		Devices:   devs,
		Supervise: supervise.Options{Trace: healTrace()},
		Flight:    flight,
	}
	res, err = massif.SolveLowCommDistributed(c, mst, E, oopt)
	if err != nil {
		return err
	}
	if err := addRow("OOM fleet, auto-refine k", 2, res); err != nil {
		return err
	}
	t.Render(os.Stdout)
	fmt.Printf("\ndurable checkpoints under %s (override with -ckpt-dir)\n", base)
	if err := flight.DumpFile(postmortemPath); err != nil {
		return err
	}
	fmt.Printf("flight-recorder postmortem written to %s\n", postmortemPath)
	return nil
}

func fleetStudy() error {
	rows, err := gpu.DGX2BatchStudy()
	if err != nil {
		return err
	}
	t := report.New("§5.1 batching — sub-domain convolutions per DGX-2 node (16× V100-32GB, model)",
		"N", "k", "r", "concurrent/GPU", "s/conv", "conv/s per node")
	for _, r := range rows {
		t.AddCells(fmt.Sprint(r.N), fmt.Sprint(r.K), fmt.Sprint(r.R),
			fmt.Sprint(r.PerGPU), report.Seconds(r.ConvSec), fmt.Sprintf("%.1f", r.NodePerSec))
	}
	t.Render(os.Stdout)
	return nil
}

func rateSweep() error {
	// The §5.4 dial, measured for real: "the downsampling rate r can be
	// increased to reduce the memory requirement further if needed, but at
	// the cost of accuracy". N/k = 16 so the far shell (torus distance ≥ 4k)
	// exists at all: no point is farther than (N−k+1)/2 from the sub-domain.
	n, k := 128, 8
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{0, 0, 0}, k)
	kernel := green.Gaussian{Sigma: 2}
	subField := grid.NewField(grid.Cube(k))
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				dx, dy, dz := float64(x-k/2), float64(y-k/2), float64(z-k/2)
				subField.Set(x, y, z, math.Exp(-(dx*dx+dy*dy+dz*dz)/6))
			}
		}
	}
	want, err := conv.BaselineSubdomain(dim, sub, subField, kernel, 0)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("§5.4 measured accuracy/compression tradeoff, N=%d k=%d", n, k),
		"far r", "samples stored", "compression", "rel L2 error")
	for _, far := range []int{2, 4, 8, 16, 32} {
		pol := sample.Policy{Sub: sub, NearRate: 2, MidRate: 8, FarRate: far}
		if far < 8 {
			pol.MidRate = far
		}
		tree, err := pol.Tree(dim)
		if err != nil {
			return err
		}
		local, err := conv.NewLocal(dim, sub, tree, conv.KernelPointwise(dim, kernel),
			conv.Config{})
		if err != nil {
			return err
		}
		res, st, err := local.Run(subField)
		if err != nil {
			return err
		}
		dense, err := res.Reconstruct()
		if err != nil {
			return err
		}
		rel, err := grid.RelL2(dense, want)
		if err != nil {
			return err
		}
		t.AddCells(fmt.Sprint(far), fmt.Sprint(st.SampleCount),
			fmt.Sprintf("%.1fx", st.Compression), fmt.Sprintf("%.5f", rel))
	}
	t.Render(os.Stdout)
	return nil
}
