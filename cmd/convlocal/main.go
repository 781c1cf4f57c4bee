// Command convlocal runs one domain-local convolution (the paper's §4
// proof-of-concept unit) and reports error, compression and footprint
// against the dense baseline:
//
//	convlocal -n 64 -k 16 -far 16 -sigma 2
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/report"
	"lowcomm3d/internal/sample"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("convlocal: ")
	var (
		n     = flag.Int("n", 64, "grid size N (power of two)")
		k     = flag.Int("k", 16, "sub-domain size k")
		far   = flag.Int("far", 16, "far-field downsampling rate")
		sigma = flag.Float64("sigma", 2, "Gaussian kernel width (grid cells)")
		model = flag.Bool("model", false, "print the analytic GPU memory model instead of running (works at paper scales, e.g. -n 2048)")
	)
	flag.Parse()

	if *model {
		m, err := gpu.LocalConvMemory(*n, *k, *far)
		if err != nil {
			log.Fatal(err)
		}
		t := report.New(fmt.Sprintf("analytic GPU memory model: N=%d k=%d r=%d", *n, *k, *far),
			"buffer", "bytes")
		t.AddCells("sub-domain input", report.Bytes(m.SubDomain))
		t.AddCells("slab in", report.Bytes(m.SlabIn))
		t.AddCells("slab out", report.Bytes(m.SlabOut))
		t.AddCells("plane chunk in", report.Bytes(m.ChunkIn))
		t.AddCells("plane chunk out", report.Bytes(m.ChunkOut))
		t.AddCells("compressed samples", report.Bytes(m.Samples))
		t.AddCells("cuFFT workspace", report.Bytes(m.CufftWork))
		t.AddCells("estimated total", report.Bytes(m.Estimated()))
		t.AddCells("actual total", report.Bytes(m.Actual()))
		t.Render(os.Stdout)
		for _, dev := range []*gpu.Device{gpu.V100_16GB(), gpu.V100_32GB()} {
			ok, peak := m.FitsOn(dev)
			fmt.Printf("fits %s: %v (peak %s)\n", dev.Name, ok, report.Bytes(peak))
		}
		return
	}

	dim := grid.Cube(*n)
	sub := grid.CubeAt(grid.Point{(*n - *k) / 2, (*n - *k) / 2, (*n - *k) / 2}, *k)
	kernel := green.Gaussian{Sigma: *sigma}
	tree, err := sample.DefaultPolicy(sub, *far).Tree(dim)
	if err != nil {
		log.Fatal(err)
	}
	local, err := conv.NewLocal(dim, sub, tree, conv.KernelPointwise(dim, kernel), conv.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Smooth deterministic sub-domain input.
	subField := grid.NewField(grid.Cube(*k))
	for z := 0; z < *k; z++ {
		for y := 0; y < *k; y++ {
			for x := 0; x < *k; x++ {
				fx := float64(x) / float64(*k)
				fy := float64(y) / float64(*k)
				fz := float64(z) / float64(*k)
				subField.Set(x, y, z,
					math.Sin(2*math.Pi*fx)*math.Cos(math.Pi*fy)+0.5*math.Sin(math.Pi*fz))
			}
		}
	}

	start := time.Now()
	res, st, err := local.Run(subField)
	if err != nil {
		log.Fatal(err)
	}
	localDur := time.Since(start)

	start = time.Now()
	want, err := conv.BaselineSubdomain(dim, sub, subField, kernel, 0)
	if err != nil {
		log.Fatal(err)
	}
	baseDur := time.Since(start)

	dense, err := res.Reconstruct()
	if err != nil {
		log.Fatal(err)
	}
	rel, err := grid.RelL2(dense, want)
	if err != nil {
		log.Fatal(err)
	}

	t := report.New(fmt.Sprintf("local convolution: N=%d k=%d far=%d σ=%g",
		*n, *k, *far, *sigma), "metric", "value")
	t.AddCells("rel L2 error", fmt.Sprintf("%.4f", rel))
	t.AddCells("compression", fmt.Sprintf("%.1fx", st.Compression))
	t.AddCells("samples", fmt.Sprint(st.SampleCount))
	t.AddCells("z planes with samples", fmt.Sprintf("%d of %d", st.KeptZPlanes, *n))
	t.AddCells("half-spectrum z pencils", fmt.Sprint(st.PencilCount))
	t.AddCells("paper slab model 8·N²·k", report.Bytes(int64(st.ModelBytes)))
	ofModel := func(b int) string {
		return fmt.Sprintf("%s (%.2fx the paper model)", report.Bytes(int64(b)), float64(b)/float64(st.ModelBytes))
	}
	t.AddCells("x-spectrum bytes", ofModel(st.SlabBytes))
	t.AddCells("kept-row bytes", ofModel(st.PlanesBytes))
	t.AddCells("compressed bytes", report.Bytes(int64(st.SampleBytes)))
	t.AddCells("peak bytes (all held at once)", ofModel(st.PeakBytes))
	t.AddCells("dense result bytes", report.Bytes(8*int64(dim.Len())))
	t.AddCells("stage A (x forward)", st.StageA.String())
	t.AddCells("stage B (per kx: y, z + kernel, inverse y)", st.StageB.String())
	t.AddCells("stage C (inverse x + sampling)", st.StageC.String())
	t.AddCells("local runtime", localDur.String())
	t.AddCells("baseline runtime", baseDur.String())
	t.Render(os.Stdout)
}
