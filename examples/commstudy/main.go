// Communication study: run the same convolution on a simulated cluster
// with the traditional distributed-FFT pipeline (two all-to-all
// transposes) and with the proposed low-communication pipeline (one sparse
// exchange), across worker counts, and sweep the Eq. 1 vs Eq. 6 analytic
// model over the paper's problem sizes.
//
//	go run ./examples/commstudy
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/report"
)

func main() {
	log.SetFlags(0)
	const (
		n = 64
		k = 32
	)
	f := grid.NewField(grid.Cube(n))
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				f.Set(x, y, z, math.Sin(2*math.Pi*float64(x+y)/n)*math.Cos(2*math.Pi*float64(z)/n))
			}
		}
	}
	kernel := green.Gaussian{Sigma: 2}

	t := report.New(fmt.Sprintf("measured on the simulated cluster, N=%d k=%d", n, k),
		"P", "pipeline", "rounds", "bytes", "α-β time", "rel err vs dense")
	dense, err := conv.Baseline(f, kernel, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range []int{2, 4, 8} {
		cT, err := cluster.New(p, cluster.DefaultParams())
		if err != nil {
			log.Fatal(err)
		}
		outT, err := cluster.DistFFTConvolve(cT, f, kernel)
		if err != nil {
			log.Fatal(err)
		}
		bT, _, rT, sT := cT.Stats.Snapshot()
		eT, _ := grid.RelL2(outT, dense)

		cO, err := cluster.New(p, cluster.DefaultParams())
		if err != nil {
			log.Fatal(err)
		}
		outO, err := cluster.LowCommConvolve(cO, f, kernel, k, 16, conv.Config{})
		if err != nil {
			log.Fatal(err)
		}
		bO, _, rO, sO := cO.Stats.Snapshot()
		eO, _ := grid.RelL2(outO.Field, dense)

		t.AddCells(fmt.Sprint(p), "traditional", fmt.Sprint(rT), report.Bytes(bT),
			report.Seconds(sT), fmt.Sprintf("%.2e", eT))
		t.AddCells(fmt.Sprint(p), "low-comm", fmt.Sprint(rO), report.Bytes(bO),
			report.Seconds(sO), fmt.Sprintf("%.4f", eO))
	}
	t.Render(os.Stdout)

	// Analytic sweep: where does the proposed method's advantage go as N,
	// P and r change? (Eq. 1 vs Eq. 6.)
	params := cluster.DefaultParams()
	t2 := report.New("\nEq. 1 vs Eq. 6 model sweep (k=128)", "N", "P", "r", "T_FFT", "T_ours", "ratio")
	for _, nn := range []int{1024, 4096} {
		for _, pp := range []int{256, 4096} {
			for _, rr := range []int{4, 32} {
				tf := params.TCommFFT(nn, pp)
				to := params.TOurs(nn, 128, rr, pp)
				t2.AddCells(fmt.Sprint(nn), fmt.Sprint(pp), fmt.Sprint(rr),
					report.Seconds(tf), report.Seconds(to), fmt.Sprintf("%.0fx", tf/to))
			}
		}
	}
	t2.Render(os.Stdout)
}
