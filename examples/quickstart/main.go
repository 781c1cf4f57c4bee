// Quickstart: convolve a k³ sub-domain with a decaying Green's-function
// kernel without ever materializing the padded N³ grid, then compare the
// compressed result against the traditional dense convolution.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

func main() {
	log.SetFlags(0)
	const (
		n = 64 // full grid: 64³
		k = 16 // sub-domain: 16³
	)
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{24, 24, 24}, k)

	// 1. The input lives only on the sub-domain: a smooth bump.
	subField := grid.NewField(grid.Cube(k))
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				dx, dy, dz := float64(x-k/2), float64(y-k/2), float64(z-k/2)
				subField.Set(x, y, z, math.Exp(-(dx*dx+dy*dy+dz*dz)/8))
			}
		}
	}

	// 2. A rapidly-decaying kernel (the paper's proof-of-concept choice).
	kernel := green.Gaussian{Sigma: 2}

	// 3. The adaptive sampling policy: full resolution on the sub-domain,
	//    rate 2 nearby, coarser further out (paper §5.4).
	tree, err := sample.DefaultPolicy(sub, 16).Tree(dim)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run the local pipeline: slab and pencil forward transforms,
	//    on-the-fly kernel multiply, octree-sampled inverse.
	local, err := conv.NewLocal(dim, sub, tree, conv.KernelPointwise(dim, kernel),
		conv.Config{})
	if err != nil {
		log.Fatal(err)
	}
	compressed, stats, err := local.Run(subField)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Compare against the traditional dense path.
	dense, err := compressed.Reconstruct()
	if err != nil {
		log.Fatal(err)
	}
	want, err := conv.BaselineSubdomain(dim, sub, subField, kernel, 0)
	if err != nil {
		log.Fatal(err)
	}
	rel, err := grid.RelL2(dense, want)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("grid %v, sub-domain %v\n", dim, sub)
	fmt.Printf("compressed result: %d samples (%.1fx compression, %d of %d z planes kept)\n",
		stats.SampleCount, stats.Compression, stats.KeptZPlanes, n)
	fmt.Printf("working set: x spectra %d B + kept rows %d B, peak %d B vs the paper's 8·N²·k slab %d B and the dense complex grid %d B\n",
		stats.SlabBytes, stats.PlanesBytes, stats.PeakBytes, stats.ModelBytes, 16*dim.Len())
	fmt.Printf("relative L2 error vs dense convolution: %.4f\n", rel)
}
