// Poisson example: solve ∇²u = −ρ on the periodic grid by convolving
// point charges with the Laplacian's Green's function (the paper's Eq. 5
// analogue), using the low-communication decomposed pipeline, and verify
// the 1/r potential shape and superposition.
//
//	go run ./examples/poisson
package main

import (
	"fmt"
	"log"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

func main() {
	log.SetFlags(0)
	const n = 64
	dim := grid.Cube(n)

	// Two point charges in different sub-domains.
	rho := grid.NewField(dim)
	rho.Set(16, 16, 16, 1)
	rho.Set(48, 48, 48, -0.5)

	kernel := green.Poisson{}

	// Traditional dense solve.
	direct, err := conv.Baseline(rho, kernel, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Proposed decomposed solve with the irregular input-adaptive
	// partition: only the sub-domains containing charge are convolved at
	// all, and they shrink to hug the sources.
	dc := conv.Decomposed{Kernel: kernel, SubSize: 16, FarRate: 8}
	approx, stats, err := dc.RunAdaptive(rho, 4)
	if err != nil {
		log.Fatal(err)
	}

	rel, err := grid.RelL2(approx, direct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Poisson solve on %v with 2 point charges\n", dim)
	fmt.Printf("adaptive partition: %d active sub-domains (a regular %d-cube split has %d), mean compression %.1fx\n",
		len(stats.PerSub), 16, len(stats.PerSub)+stats.SkippedZero, stats.CompressionMean)
	fmt.Printf("exchange: %s vs dense %s\n",
		bytes(stats.TotalBytes), bytes(stats.DenseBytes))
	fmt.Printf("relative L2 error vs dense solve: %.4f\n\n", rel)

	// The potential near an isolated charge behaves like 1/(4πr): check
	// the ratio u(r)/u(2r) ≈ 2 near the positive charge.
	u1 := direct.At(18, 16, 16) - direct.At(32, 16, 16)
	u2 := direct.At(20, 16, 16) - direct.At(32, 16, 16)
	fmt.Printf("potential decay: u(2)−u(16) / u(4)−u(16) = %.2f (1/r law → ≈ 2)\n", u1/u2)

	// Superposition: solving the charges separately must sum to the
	// combined solution (linearity of the solver).
	rhoA := grid.NewField(dim)
	rhoA.Set(16, 16, 16, 1)
	rhoB := grid.NewField(dim)
	rhoB.Set(48, 48, 48, -0.5)
	uA, err := conv.Baseline(rhoA, kernel, 0)
	if err != nil {
		log.Fatal(err)
	}
	uB, err := conv.Baseline(rhoB, kernel, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := uA.AddScaled(1, uB); err != nil {
		log.Fatal(err)
	}
	sup, err := grid.RelL2(uA, direct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("superposition check: rel L2 between sum-of-parts and combined = %.2e\n", sup)
}

func bytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
