package lowcomm3d

// End-to-end integration scenarios combining subsystems: distributed
// convolution + serialization + reconstruction, and the full MASSIF
// workflow from microstructure to checkpointed solution.

import (
	"bytes"
	"math"
	"testing"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/massif"
	"lowcomm3d/internal/sample"
)

// TestIntegrationConvolutionPaths: every convolution path in the library —
// dense complex, dense r2c, distributed slab, distributed pencil —
// computes the same answer for the same input, and the
// low-communication paths (serial decomposed, distributed low-comm)
// approximate it within the sampling tolerance.
func TestIntegrationConvolutionPaths(t *testing.T) {
	n, k := 32, 8
	d := grid.Cube(n)
	f := grid.NewField(d)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				dx, dy, dz := float64(x-12), float64(y-20), float64(z-8)
				f.Set(x, y, z, math.Exp(-(dx*dx+dy*dy+dz*dz)/20))
			}
		}
	}
	kernel := green.Gaussian{Sigma: 2}

	exact, err := conv.Baseline(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Exact paths must agree to round-off.
	r2c, err := conv.BaselineReal(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(r2c, exact); r > 1e-12 {
		t.Errorf("r2c path differs by %g", r)
	}
	cSlab, err := cluster.New(4, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	slab, err := cluster.DistFFTConvolve(cSlab, f, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(slab, exact); r > 1e-11 {
		t.Errorf("slab path differs by %g", r)
	}
	cPencil, err := cluster.New(4, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pencil, err := cluster.PencilFFTConvolve(cPencil, f, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(pencil, exact); r > 1e-11 {
		t.Errorf("pencil path differs by %g", r)
	}
	// Approximate paths within sampling tolerance.
	dc := conv.Decomposed{Kernel: kernel, SubSize: k, FarRate: 8}
	approx, _, err := dc.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	rSerial, _ := grid.RelL2(approx, exact)
	if rSerial > 0.05 {
		t.Errorf("decomposed error %g", rSerial)
	}
	cLow, err := cluster.New(4, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	low, err := cluster.LowCommConvolve(cLow, f, kernel, k, 8, conv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(low.Field, approx); r > 1e-11 {
		t.Errorf("distributed low-comm differs from serial decomposed by %g", r)
	}
}

// TestIntegrationCompressShipReconstruct: convolve locally, serialize the
// compressed result, ship it through a byte stream, reconstruct remotely,
// and verify against the dense baseline plus the Taylor bound.
func TestIntegrationCompressShipReconstruct(t *testing.T) {
	n, k := 64, 16
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{24, 24, 24}, k)
	kernel := green.Gaussian{Sigma: 2}
	tree, err := sample.DefaultPolicy(sub, 16).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	local, err := conv.NewLocal(dim, sub, tree, conv.KernelPointwise(dim, kernel),
		conv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	subField := grid.NewField(grid.Cube(k))
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				dx, dy, dz := float64(x-k/2), float64(y-k/2), float64(z-k/2)
				subField.Set(x, y, z, math.Exp(-(dx*dx+dy*dy+dz*dz)/10))
			}
		}
	}
	res, _, err := local.Run(subField)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize → deserialize (the "ship to another node" step).
	var buf bytes.Buffer
	if _, err := res.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	remote, err := sample.ReadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := remote.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	want, err := conv.BaselineSubdomain(dim, sub, subField, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := grid.RelL2(dense, want)
	if rel > 0.03 {
		t.Errorf("shipped result error %g > 3%%", rel)
	}
	// The a-posteriori Taylor certificate must hold on the exact result.
	if _, _, err := remote.VerifyBound(want); err != nil {
		t.Errorf("Taylor bound violated: %v", err)
	}
}

// TestIntegrationMassifWorkflow: microstructure → accelerated solve →
// compress + checkpoint the strain → reload → compare against a
// distributed low-comm solve of the same problem.
func TestIntegrationMassifWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workflow; skipped in -short")
	}
	n := 32
	l1, m1 := green.LameFromENu(200, 0.3)
	l2, m2 := green.LameFromENu(100, 0.3)
	micro, err := massif.NewMicrostructure(grid.Cube(n),
		massif.Phase{Lambda: l1, Mu: m1}, massif.Phase{Lambda: l2, Mu: m2})
	if err != nil {
		t.Fatal(err)
	}
	if err := micro.SetVoronoi(5, 3); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	acc, err := massif.SolveAccelerated(micro, E, massif.Options{Tol: 1e-7, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Converged {
		t.Fatal("accelerated solve did not converge")
	}
	cl, err := cluster.New(4, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	low, err := massif.SolveLowCommDistributed(cl, micro, E, massif.LowCommOptions{
		Options: massif.Options{Tol: 1e-3, MaxIter: 30},
		SubSize: 16, FarRate: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	refS := acc.MeanStress()[grid.VXX]
	lowS := low.MeanStress()[grid.VXX]
	if rel := math.Abs(lowS-refS) / refS; rel > 0.05 {
		t.Errorf("distributed low-comm mean stress off by %g", rel)
	}
	// Checkpoint one strain component through the binary format.
	tree, err := sample.Uniform{Rate: 2, CellSize: 8}.Tree(micro.Dim)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := sample.Compress(acc.Strain.Comp[grid.VXX], tree)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := comp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sample.ReadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := back.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := grid.RelL2(rec, acc.Strain.Comp[grid.VXX])
	if rel > 0.1 {
		t.Errorf("checkpoint reconstruction error %g", rel)
	}
}
