// Package lowcomm3d reproduces "A framework for low communication
// approaches for large scale 3D convolution" (Kulkarni, Kovačević,
// Franchetti — ICPP Workshops 2022) as a pure-Go library.
//
// The implementation lives under internal/: grid primitives, a
// from-scratch FFT library, Green's-function kernels including the MASSIF
// Γ̂ operator, octree-based adaptive sampling, the local
// low-communication convolution pipeline, the MASSIF spectral solvers, a
// simulated cluster with byte-accurate communication accounting, and a
// simulated GPU memory/runtime model. See README.md for the architecture
// overview, DESIGN.md for the experiment index, and EXPERIMENTS.md for
// paper-vs-measured results. The benchmarks in this package regenerate
// every table and figure of the paper's evaluation.
package lowcomm3d
