// MASSIF example: solve the Hooke's-law equilibrium of a two-phase
// composite (stiff matrix, compliant spherical inclusion) under uniaxial
// strain, with the traditional spectral solver and the low-communication
// solver, and compare the effective response against the analytic
// Reuss/Voigt bounds.
//
//	go run ./examples/massif
package main

import (
	"fmt"
	"log"

	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/massif"
)

func main() {
	log.SetFlags(0)
	const n = 32

	// Titanium-like matrix with a 3× more compliant inclusion.
	lm, mm := green.LameFromENu(110, 0.32)
	li, mi := green.LameFromENu(36, 0.32)
	micro, err := massif.NewMicrostructure(grid.Cube(n),
		massif.Phase{Lambda: lm, Mu: mm},
		massif.Phase{Lambda: li, Mu: mi})
	if err != nil {
		log.Fatal(err)
	}
	if err := micro.SetSphere(grid.Point{n / 2, n / 2, n / 2}, n/4, 1); err != nil {
		log.Fatal(err)
	}
	f1 := micro.VolumeFraction(1)
	fmt.Printf("microstructure: %d³ grid, spherical inclusion, volume fraction %.3f\n", n, f1)

	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	opt := massif.Options{Tol: 1e-5, MaxIter: 300}

	ref, err := massif.SolveReference(micro, E, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreference solver (Algorithm 1): %d iterations, converged=%v\n",
		ref.Iterations, ref.Converged)
	fmt.Printf("  mean stress σ_xx = %.5f, σ_yy = %.5f\n",
		ref.MeanStress()[grid.VXX], ref.MeanStress()[grid.VYY])

	low, err := massif.SolveLowComm(micro, E, massif.LowCommOptions{
		Options: massif.Options{Tol: 1e-3, MaxIter: 60},
		SubSize: 16, FarRate: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlow-comm solver (Algorithm 2, k=16, far rate 8): %d iterations\n", low.Iterations)
	fmt.Printf("  mean stress σ_xx = %.5f (%.2f%% off reference)\n",
		low.MeanStress()[grid.VXX],
		100*abs(low.MeanStress()[grid.VXX]-ref.MeanStress()[grid.VXX])/ref.MeanStress()[grid.VXX])
	fmt.Printf("  sample storage per iteration: %d samples, %d bytes (uncompressed: %d)\n",
		low.Comm.SamplesPerIter, low.Comm.BytesPerIter, low.Comm.DenseBytesPerIter)

	// Sanity: the effective axial stiffness must lie between the bounds.
	mMat := lm + 2*mm
	mInc := li + 2*mi
	reuss := 0.01 / ((1-f1)/mMat + f1/mInc)
	voigt := 0.01 * ((1-f1)*mMat + f1*mInc)
	fmt.Printf("\nReuss/Voigt bounds on σ_xx: [%.5f, %.5f]\n", reuss, voigt)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
