// Polycrystal example: a copper polycrystal (cubic crystal stiffness,
// random grain orientations, periodic Voronoi grains) solved with the
// CG-accelerated spectral solver and with the low-communication solver on
// a simulated 4-worker cluster, plus checkpointing of a compressed
// sub-domain result to disk.
//
//	go run ./examples/polycrystal
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/massif"
	"lowcomm3d/internal/sample"
)

func main() {
	log.SetFlags(0)
	const n = 32

	// Copper single-crystal constants (GPa): strongly anisotropic
	// (Zener ratio ≈ 3.2).
	copper := massif.CubicStiffness(168.4, 121.4, 75.4)
	// Voigt-average isotropic reference for the Green operator.
	lambdaV := (168.4 + 4*121.4 - 2*75.4) / 5
	muV := (168.4 - 121.4 + 3*75.4) / 5
	micro, err := massif.RandomOrientedPolycrystal(grid.Cube(n), copper,
		massif.Phase{Lambda: lambdaV, Mu: muV}, 12, 2024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("copper polycrystal: %d³ grid, 12 random-oriented grains\n", n)

	E := grid.SymTensor{0.001, 0, 0, 0, 0, 0}
	res, err := massif.SolveAccelerated(micro, E, massif.Options{Tol: 1e-7, MaxIter: 300})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CG solver: %d iterations, converged=%v\n", res.Iterations, res.Converged)
	ms := res.MeanStress()
	fmt.Printf("mean stress: σ_xx=%.5f σ_yy=%.5f σ_xy=%.5f (GPa·strain)\n",
		ms[grid.VXX], ms[grid.VYY], ms[grid.VXY])
	// Under uniaxial *strain* the axial response is the effective C11;
	// the Voigt bound for copper is λ_V + 2μ_V ≈ 210 GPa.
	fmt.Printf("effective C11 ≈ %.1f GPa (Voigt bound ≈ %.1f)\n",
		ms[grid.VXX]/0.001, lambdaV+2*muV)

	// The same microstructure through the low-communication solver on a
	// simulated cluster.
	cl, err := cluster.New(4, cluster.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	dist, err := massif.SolveLowCommDistributed(cl, micro, E, massif.LowCommOptions{
		Options: massif.Options{Tol: 5e-3, MaxIter: 40},
		SubSize: 16, FarRate: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	bytes, _, exchanges, _ := cl.Stats.Snapshot()
	fmt.Printf("\ndistributed low-comm solver (P=4, k=16): %d iterations\n", dist.Iterations)
	fmt.Printf("  σ_xx = %.5f (%.2f%% off CG)\n", dist.MeanStress()[grid.VXX],
		100*abs(dist.MeanStress()[grid.VXX]-ms[grid.VXX])/ms[grid.VXX])
	fmt.Printf("  fabric traffic: %d bytes over %d sparse exchanges\n", bytes, exchanges)

	// Checkpoint a compressed field to disk and read it back.
	sub := grid.CubeAt(grid.Point{8, 8, 8}, 16)
	tree, err := sample.DefaultPolicy(sub, 8).Tree(micro.Dim)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := sample.Compress(res.Strain.Comp[grid.VXX], tree)
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "lowcomm3d-checkpoint.bin")
	fh, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	written, err := comp.WriteTo(fh)
	if err != nil {
		log.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		log.Fatal(err)
	}
	rh, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	back, err := sample.ReadCompressed(rh)
	if err != nil {
		log.Fatal(err)
	}
	if err := rh.Close(); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	rec, err := back.Reconstruct()
	if err != nil {
		log.Fatal(err)
	}
	rel, err := grid.RelL2(rec, res.Strain.Comp[grid.VXX])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncheckpoint: ε_xx written to %s (%d bytes, %.1fx compression), reload error %.4f\n",
		path, written, comp.CompressionRatio(), rel)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
