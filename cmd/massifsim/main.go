// Command massifsim runs the MASSIF stress–strain simulation (the paper's
// §2.2 use case) on a two-phase composite microstructure, with either the
// traditional full-grid spectral solver (Algorithm 1) or the proposed
// low-communication solver (Algorithm 2), and reports the effective
// response and communication accounting:
//
//	massifsim -n 32 -micro sphere -solver both
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/massif"
	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/report"
	"lowcomm3d/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("massifsim: ")
	var (
		n         = flag.Int("n", 32, "grid size N (power of two)")
		micro     = flag.String("micro", "sphere", "microstructure: sphere | laminate | voronoi | homogeneous")
		solver    = flag.String("solver", "both", "solver: reference | accelerated | lowcomm | distributed | both | all")
		workers   = flag.Int("P", 4, "simulated workers for the distributed solver")
		subSize   = flag.Int("k", 0, "low-comm sub-domain size (0 = N/2)")
		far       = flag.Int("far", 8, "low-comm far-field rate")
		tol       = flag.Float64("tol", 1e-5, "convergence tolerance on ‖Δε‖/‖ε⁰‖")
		maxIter   = flag.Int("maxiter", 200, "iteration cap")
		exx       = flag.Float64("exx", 0.01, "applied axial strain E_xx")
		contrastE = flag.Float64("contrast", 3, "Young's modulus contrast between phases")
		serve     = flag.String("serve", "", "serve live telemetry (/metrics, /healthz, /debug/pprof) on this address, e.g. :8080, and block after the run")
	)
	flag.Parse()

	var tr *obs.Trace
	var srv *telemetry.Server
	if *serve != "" {
		tr = obs.New()
		s, err := telemetry.Serve(*serve, tr, nil)
		if err != nil {
			log.Fatal(err)
		}
		srv = s
		log.Printf("telemetry: serving http://%s/metrics (plus /healthz, /debug/pprof)", srv.Addr())
	}

	l1, m1 := green.LameFromENu(210, 0.3)
	l2, m2 := green.LameFromENu(210 / *contrastE, 0.3)
	m, err := massif.NewMicrostructure(grid.Cube(*n),
		massif.Phase{Lambda: l1, Mu: m1}, massif.Phase{Lambda: l2, Mu: m2})
	if err != nil {
		log.Fatal(err)
	}
	switch *micro {
	case "sphere":
		if err := m.SetSphere(grid.Point{*n / 2, *n / 2, *n / 2}, float64(*n)/4, 1); err != nil {
			log.Fatal(err)
		}
	case "laminate":
		if err := m.SetLaminate(0, *n/2, *n, 1); err != nil {
			log.Fatal(err)
		}
	case "voronoi":
		if err := m.SetVoronoi(8, 42); err != nil {
			log.Fatal(err)
		}
	case "homogeneous":
		// phase 0 everywhere
	default:
		log.Fatalf("unknown microstructure %q", *micro)
	}
	E := grid.SymTensor{*exx, 0, 0, 0, 0, 0}
	opt := massif.Options{Tol: *tol, MaxIter: *maxIter, Trace: tr}
	if *subSize == 0 {
		*subSize = *n / 2
	}

	t := report.New(fmt.Sprintf("MASSIF %s composite, N=%d, E_xx=%g, phase-1 fraction %.3f",
		*micro, *n, *exx, m.VolumeFraction(1)),
		"solver", "iters", "converged", "mean σ_xx", "residual", "fabric bytes/iter", "sample bytes/iter")
	// The dense solvers run in this one process; their fabric figure is
	// what the distributed dense scheme moves per iteration, four
	// transposes of the six real components.
	denseFabric := report.Bytes(8*int64(m.Dim.Len())*grid.NumVoigt*4) + " (model: 4 transposes)"

	if *solver == "reference" || *solver == "both" || *solver == "all" {
		res, err := massif.SolveReference(m, E, opt)
		if err != nil {
			log.Fatal(err)
		}
		t.AddCells("reference (Alg. 1)", fmt.Sprint(res.Iterations), fmt.Sprint(res.Converged),
			fmt.Sprintf("%.6f", res.MeanStress()[grid.VXX]),
			fmt.Sprintf("%.2e", last(res.Residuals)),
			denseFabric, "—")
	}
	if *solver == "accelerated" || *solver == "all" {
		res, err := massif.SolveAccelerated(m, E, opt)
		if err != nil {
			log.Fatal(err)
		}
		t.AddCells("accelerated (CG)", fmt.Sprint(res.Iterations), fmt.Sprint(res.Converged),
			fmt.Sprintf("%.6f", res.MeanStress()[grid.VXX]),
			fmt.Sprintf("%.2e", last(res.Residuals)),
			denseFabric, "—")
	}
	if *solver == "distributed" || *solver == "all" {
		cl, err := cluster.NewWithOptions(*workers, cluster.DefaultParams(), cluster.Options{Trace: tr})
		if err != nil {
			log.Fatal(err)
		}
		res, err := massif.SolveLowCommDistributed(cl, m, E, massif.LowCommOptions{
			Options: opt, SubSize: *subSize, FarRate: *far,
		})
		if err != nil {
			log.Fatal(err)
		}
		bytes, _, colls, _ := cl.Stats.Snapshot()
		t.AddCells(fmt.Sprintf("distributed (P=%d, k=%d r=%d)", *workers, *subSize, *far),
			fmt.Sprint(res.Iterations), fmt.Sprint(res.Converged),
			fmt.Sprintf("%.6f", res.MeanStress()[grid.VXX]),
			fmt.Sprintf("%.2e", last(res.Residuals)),
			fmt.Sprintf("%s (measured, %d collectives in all)", report.Bytes(bytes/int64(max(res.Iterations, 1))), colls),
			report.Bytes(int64(res.Comm.BytesPerIter)))
	}
	if *solver == "lowcomm" || *solver == "both" || *solver == "all" {
		res, err := massif.SolveLowComm(m, E, massif.LowCommOptions{
			Options: opt, SubSize: *subSize, FarRate: *far,
		})
		if err != nil {
			log.Fatal(err)
		}
		t.AddCells(fmt.Sprintf("low-comm (Alg. 2, k=%d r=%d)", *subSize, *far),
			fmt.Sprint(res.Iterations), fmt.Sprint(res.Converged),
			fmt.Sprintf("%.6f", res.MeanStress()[grid.VXX]),
			fmt.Sprintf("%.2e", last(res.Residuals)),
			"— (one process)", report.Bytes(int64(res.Comm.BytesPerIter)))
	}
	t.Render(os.Stdout)
	if srv != nil {
		log.Printf("telemetry: run complete, still serving http://%s/ — Ctrl-C to exit", srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		srv.Close()
	}
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}
