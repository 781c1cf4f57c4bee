// Package conv implements the paper's 3D convolution pipelines: the
// traditional full-grid FFT convolution (the baseline every HPC framework
// implements, §2.1) and the proposed low-communication local pipeline
// (§3): per-sub-domain slab/pencil FFT → on-the-fly pointwise kernel
// multiply → inverse transform with octree-adaptive sampling, never
// materializing the padded N³ result, plus the final accumulation step.
package conv

import (
	"fmt"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

// Baseline computes the circular convolution of a real field with a
// frequency-domain kernel the traditional way: full 3D FFT, pointwise
// multiply, full 3D inverse. It materializes the dense N³ complex field —
// the 8·N³-byte footprint of the paper's Table 1 "traditional FFT" column
// (16·N³ for the complex intermediate).
func Baseline(f *grid.Field, k green.Kernel, workers int) (*grid.Field, error) {
	plan, err := fft.NewPlan3D(f.Dim, workers)
	if err != nil {
		return nil, err
	}
	c := grid.FromReal(f)
	if err := plan.Forward(c); err != nil {
		return nil, err
	}
	d := f.Dim
	i := 0
	for kz := 0; kz < d.Nz; kz++ {
		for ky := 0; ky < d.Ny; ky++ {
			for kx := 0; kx < d.Nx; kx++ {
				c.Data[i] *= complex(k.Hat(d, kx, ky, kz), 0)
				i++
			}
		}
	}
	if err := plan.Inverse(c); err != nil {
		return nil, err
	}
	return c.Real(), nil
}

// BaselineSubdomain embeds a k³ sub-domain field at box b inside an
// otherwise-zero dim-sized grid and convolves it with the kernel using the
// traditional full-grid path. It is the exact reference the local pipeline
// is validated against: "performing convolution on each small sub-domain
// (which is embedded in a larger volume of zero values) would yield a full
// grid-sized non-zero result" (§3.2 step 2).
func BaselineSubdomain(dim grid.Dim3, b grid.Box, sub *grid.Field, k green.Kernel, workers int) (*grid.Field, error) {
	s := b.Size()
	if (grid.Dim3{Nx: s[0], Ny: s[1], Nz: s[2]}) != sub.Dim {
		return nil, fmt.Errorf("conv: sub-domain field %v does not match box %v", sub.Dim, b)
	}
	full := grid.NewField(dim)
	if err := full.InsertBox(b, sub); err != nil {
		return nil, err
	}
	return Baseline(full, k, workers)
}
