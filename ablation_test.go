package lowcomm3d

// Ablation tests for the design choices called out in DESIGN.md §5:
// accuracy comparisons that complement the timing benches in
// bench_test.go.

import (
	"math"
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// decayingField builds a convolution-result-like field: dense energy at
// the sub-domain center with a rapidly decaying tail — the data class the
// adaptive policy is shaped for.
func decayingField(d grid.Dim3, center grid.Point, width float64) *grid.Field {
	f := grid.NewField(d)
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				dx, dy, dz := float64(x-center[0]), float64(y-center[1]), float64(z-center[2])
				f.Set(x, y, z, math.Exp(-(dx*dx+dy*dy+dz*dz)/width))
			}
		}
	}
	return f
}

// TestAblationOctreeVsUniform: at a comparable (or smaller) sample budget,
// the adaptive octree reconstructs a decaying convolution result more
// accurately than uniform downsampling — the reason the paper uses octrees
// rather than a flat rate.
func TestAblationOctreeVsUniform(t *testing.T) {
	d := grid.Cube(64)
	sub := grid.CubeAt(grid.Point{24, 24, 24}, 16)
	f := decayingField(d, grid.Point{32, 32, 32}, 60)

	adaptive, err := sample.DefaultPolicy(sub, 16).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := sample.Uniform{Rate: 2, CellSize: 8}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.SampleCount() > uniform.SampleCount() {
		t.Fatalf("budget: adaptive %d must not exceed uniform %d",
			adaptive.SampleCount(), uniform.SampleCount())
	}
	ca, err := sample.Compress(f, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	cu, err := sample.Compress(f, uniform)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := ca.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	ru, err := cu.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := grid.RelL2(ra, f)
	eu, _ := grid.RelL2(ru, f)
	t.Logf("adaptive: %d samples err=%.5f; uniform: %d samples err=%.5f",
		adaptive.SampleCount(), ea, uniform.SampleCount(), eu)
	// Adaptive spends its budget where the energy is: error must be at
	// least as good while using fewer samples.
	if ea > eu*1.05 {
		t.Errorf("adaptive err %.5f should be ≤ uniform %.5f at smaller budget", ea, eu)
	}
}

// TestAblationInterpAccuracy: trilinear reconstruction must beat nearest
// on the decaying field class.
func TestAblationInterpAccuracy(t *testing.T) {
	d := grid.Cube(32)
	f := decayingField(d, grid.Point{16, 16, 16}, 40)
	tree, err := sample.Uniform{Rate: 4, CellSize: 8}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sample.Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := c.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	near, err := c.NearestReconstruct()
	if err != nil {
		t.Fatal(err)
	}
	et, _ := grid.RelL2(tri, f)
	en, _ := grid.RelL2(near, f)
	t.Logf("trilinear err=%.5f nearest err=%.5f", et, en)
	if et >= en {
		t.Errorf("trilinear %.5f must beat nearest %.5f", et, en)
	}
}

// TestAblationFarRateErrorTradeoff: coarser far rates save samples at the
// cost of accuracy — the paper's §5.4 tuning claim ("the downsampling rate
// r can be increased to reduce the memory requirement further if needed,
// but at the cost of accuracy").
func TestAblationFarRateErrorTradeoff(t *testing.T) {
	// k=8 in a 128³ grid so the far region exists: on the torus no point
	// is farther than (N−k+1)/2 = 60 from the sub-domain, beyond 4k=32
	// only when N/k > 9.
	n, k := 128, 8
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{0, 0, 0}, k)
	kernel := green.Gaussian{Sigma: 2}
	subField := decayingField(grid.Cube(k), grid.Point{4, 4, 4}, 6)
	want, err := conv.BaselineSubdomain(dim, sub, subField, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	prevSamples := 1 << 62
	var errs []float64
	for _, far := range []int{2, 16} {
		tree, err := sample.DefaultPolicy(sub, far).Tree(dim)
		if err != nil {
			t.Fatal(err)
		}
		if tree.SampleCount() >= prevSamples {
			t.Errorf("far=%d: samples %d should shrink (prev %d)", far, tree.SampleCount(), prevSamples)
		}
		prevSamples = tree.SampleCount()
		local, err := conv.NewLocal(dim, sub, tree, conv.KernelPointwise(dim, kernel),
			conv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := local.Run(subField)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := res.Reconstruct()
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := grid.RelL2(dense, want)
		errs = append(errs, rel)
		t.Logf("far=%d: %d samples, err=%.5f", far, tree.SampleCount(), rel)
	}
	if errs[1] < errs[0] {
		t.Errorf("coarser far rate should not reduce error: %v", errs)
	}
}

// TestAblationSlabMemoryModel: the paper sizes the slab the 2-D transform
// leaves at 8·N²·k (Table 1) — DESIGN.md §5 ablation 5. The pipeline never
// holds that slab: it transforms fft.Tile kx at a time, so what stage A
// leaves is the x spectra, exactly the model × 2k·hp/N² (k/N of it plus the
// Nyquist column, padded to hp = N/2+1 rounded up to fft.Tile), and
// everything a run holds undercuts the dense grid.
func TestAblationSlabMemoryModel(t *testing.T) {
	n, k := 64, 16
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{16, 0, 48}, k)
	tree, err := sample.DefaultPolicy(sub, 16).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	local, err := conv.NewLocal(dim, sub, tree,
		conv.KernelPointwise(dim, green.Gaussian{Sigma: 1}), conv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := local.Run(decayingField(grid.Cube(k), grid.Point{8, 8, 8}, 10))
	if err != nil {
		t.Fatal(err)
	}
	if hp := (n/2 + fft.Tile) / fft.Tile * fft.Tile; st.SlabBytes*n*n != st.ModelBytes*k*2*hp {
		t.Errorf("x spectra %d != model %d × 2k·hp/n²", st.SlabBytes, st.ModelBytes)
	}
	if st.PeakBytes >= 16*dim.Len() {
		t.Errorf("peak %d must undercut the dense complex grid %d", st.PeakBytes, 16*dim.Len())
	}
}
