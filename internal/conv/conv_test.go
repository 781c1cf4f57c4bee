package conv

import (
	"math"
	"math/rand"
	"testing"

	"lowcomm3d/internal/fft"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

func randSub(k int, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	f := grid.NewField(grid.Cube(k))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

// lowFreqSub builds a smooth sub-domain field: a few random Fourier modes
// with at most maxCycles oscillations across the cube, standing in for the
// piecewise-smooth stress fields of the MASSIF use case. Sampling-based
// compression targets exactly this class of data (white noise is beyond
// any sampler's reach).
func lowFreqSub(k int, maxCycles float64, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	f := grid.NewField(grid.Cube(k))
	type mode struct{ ax, ay, az, ph, amp float64 }
	ms := make([]mode, 5)
	for i := range ms {
		ms[i] = mode{
			ax: rng.Float64() * maxCycles, ay: rng.Float64() * maxCycles,
			az: rng.Float64() * maxCycles, ph: rng.Float64() * 2 * math.Pi,
			amp: rng.NormFloat64(),
		}
	}
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				v := 0.0
				for _, m := range ms {
					v += m.amp * math.Sin(2*math.Pi*(m.ax*float64(x)+m.ay*float64(y)+m.az*float64(z))/float64(k)+m.ph)
				}
				f.Set(x, y, z, v)
			}
		}
	}
	return f
}

// blobField builds a full-grid field of a few compact Gaussian blobs —
// localized sources whose convolution results decay, the setting the
// decomposed accumulation is designed for.
func blobField(d grid.Dim3, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	f := grid.NewField(d)
	for b := 0; b < 4; b++ {
		cx, cy, cz := rng.Intn(d.Nx), rng.Intn(d.Ny), rng.Intn(d.Nz)
		amp := rng.NormFloat64()
		for z := 0; z < d.Nz; z++ {
			for y := 0; y < d.Ny; y++ {
				for x := 0; x < d.Nx; x++ {
					dx, dy, dz := float64(x-cx), float64(y-cy), float64(z-cz)
					f.Data[d.Index(x, y, z)] += amp * math.Exp(-(dx*dx+dy*dy+dz*dz)/18)
				}
			}
		}
	}
	return f
}

func TestBaselineDeltaIsIdentity(t *testing.T) {
	d := grid.Cube(16)
	f := grid.NewField(d)
	rng := rand.New(rand.NewSource(1))
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	out, err := Baseline(f, green.Delta{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(out, f); r > 1e-12 {
		t.Errorf("delta convolution error %g", r)
	}
}

func TestBaselineLinearity(t *testing.T) {
	d := grid.Cube(8)
	f1 := grid.NewField(d)
	f2 := grid.NewField(d)
	rng := rand.New(rand.NewSource(2))
	for i := range f1.Data {
		f1.Data[i] = rng.NormFloat64()
		f2.Data[i] = rng.NormFloat64()
	}
	k := green.Gaussian{Sigma: 1}
	o1, err := Baseline(f1, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Baseline(f2, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := f1.Clone()
	if err := sum.AddScaled(1, f2); err != nil {
		t.Fatal(err)
	}
	oSum, err := Baseline(sum, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := o1.Clone()
	if err := want.AddScaled(1, o2); err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(oSum, want); r > 1e-11 {
		t.Errorf("linearity error %g", r)
	}
}

func TestBaselineSubdomainSizeMismatch(t *testing.T) {
	_, err := BaselineSubdomain(grid.Cube(16), grid.CubeAt(grid.Point{0, 0, 0}, 4),
		grid.NewField(grid.Cube(8)), green.Delta{}, 0)
	if err == nil {
		t.Error("size mismatch should fail")
	}
}

// rateOneTree builds a full-resolution octree so the local pipeline's
// output is an exact (sampling-free) representation.

func TestLocalExactAtFullResolution(t *testing.T) {
	// With a rate-1 octree the local pipeline must reproduce the
	// traditional full-grid convolution exactly (DESIGN.md §6 identity).
	n, k := 32, 8
	dim := grid.Cube(n)
	kernel := green.Gaussian{Sigma: 1.5}
	for _, tc := range []struct {
		name string
		lo   grid.Point
	}{
		{"corner", grid.Point{0, 0, 0}},
		{"offset", grid.Point{8, 16, 8}},
		{"unaligned", grid.Point{5, 9, 17}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub := grid.CubeAt(tc.lo, k)
			tree, err := sample.Uniform{Rate: 1, CellSize: 8}.Tree(dim)
			if err != nil {
				t.Fatal(err)
			}
			local, err := NewLocal(dim, sub, tree, KernelPointwise(dim, kernel), Config{})
			if err != nil {
				t.Fatal(err)
			}
			subField := randSub(k, 77)
			got, _, err := local.Run(subField)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := got.Reconstruct()
			if err != nil {
				t.Fatal(err)
			}
			want, err := BaselineSubdomain(dim, sub, subField, kernel, 0)
			if err != nil {
				t.Fatal(err)
			}
			r, _ := grid.RelL2(dense, want)
			if r > 1e-10 {
				t.Errorf("full-resolution mismatch: relL2 = %g", r)
			}
		})
	}
}

func TestLocalSamplesMatchBaselineSamples(t *testing.T) {
	// Stronger than reconstruction error: the pipeline's samples must
	// equal the corresponding values of the dense baseline result, i.e.
	// the compression is exact at the sample points.
	n, k := 32, 8
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{8, 8, 8}, k)
	kernel := green.Gaussian{Sigma: 1.2}
	tree, err := sample.DefaultPolicy(sub, 8).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocal(dim, sub, tree, KernelPointwise(dim, kernel), Config{})
	if err != nil {
		t.Fatal(err)
	}
	subField := randSub(k, 3)
	got, _, err := local.Run(subField)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BaselineSubdomain(dim, sub, subField, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sample.Compress(dense, tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Samples {
		if math.Abs(got.Samples[i]-want.Samples[i]) > 1e-10 {
			t.Fatalf("sample %d: pipeline %g baseline %g", i, got.Samples[i], want.Samples[i])
		}
	}
}

func TestLocalAdaptiveErrorWithinTolerance(t *testing.T) {
	// The paper's §5.3 headline: approximation error ≤ 3% for the
	// decaying Green's-function-like kernel with the §5.4 rate policy.
	n, k := 64, 16
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{24, 24, 24}, k)
	kernel := green.Gaussian{Sigma: 2}
	tree, err := sample.DefaultPolicy(sub, 16).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocal(dim, sub, tree, KernelPointwise(dim, kernel), Config{})
	if err != nil {
		t.Fatal(err)
	}
	subField := lowFreqSub(k, 1, 11)
	got, st, err := local.Run(subField)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := got.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	want, err := BaselineSubdomain(dim, sub, subField, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := grid.RelL2(dense, want)
	if r > 0.03 {
		t.Errorf("approximation error %g > 3%%", r)
	}
	if st.Compression <= 1 {
		t.Errorf("compression ratio %.2f must exceed 1", st.Compression)
	}
}

// TestLocalBatchSizeInvariance: stage B's batch is the run of kx slices a
// worker transforms through its one block. Going from one worker (all
// n/2+1 slices in one batch) to a worker per slice, and past that to more
// workers than slices, changes no bit of any sample.
func TestLocalBatchSizeInvariance(t *testing.T) {
	n, k := 32, 8
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{16, 8, 0}, k)
	kernel := green.Gaussian{Sigma: 1}
	tree, err := sample.DefaultPolicy(sub, 8).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	subField := randSub(k, 9)
	var ref []float64
	for _, w := range []int{1, 4, n/2 + 1, n} {
		local, err := NewLocal(dim, sub, tree, KernelPointwise(dim, kernel), Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := local.Run(subField)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out.Samples
			continue
		}
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(out.Samples[i]) {
				t.Fatalf("workers %d change sample %d: %v, want %v", w, i, out.Samples[i], ref[i])
			}
		}
	}
}

// TestLocalStats: the footprint figures are the pipeline's buffers, sized
// from the tree alone — the x spectra, the kept rows (the rows of the kept z
// planes that carry a sample, over the half spectrum padded to fft.Tile)
// and one kx block of max(k, kept planes) padded tiles per stage-B worker.
func TestLocalStats(t *testing.T) {
	n, k := 32, 8
	h := n/2 + 1
	hp := (h + fft.Tile - 1) / fft.Tile * fft.Tile // kx per row, padding lanes included
	dim := grid.Cube(n)
	sub := grid.CubeAt(grid.Point{8, 8, 8}, k)
	tree, err := sample.DefaultPolicy(sub, 16).Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	planes, rows := map[int]bool{}, map[[2]int]bool{}
	tree.ForEachSample(func(_, _, _, y, z int) {
		planes[z], rows[[2]int{z, y}] = true, true
	})
	for _, workers := range []int{1, 2} {
		local, err := NewLocal(dim, sub, tree, KernelPointwise(dim, green.Gaussian{Sigma: 1}), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := local.Run(randSub(k, 2))
		if err != nil {
			t.Fatal(err)
		}
		if want := 16 * k * k * hp; st.SlabBytes != want {
			t.Errorf("workers %d: x-spectrum bytes %d want %d", workers, st.SlabBytes, want)
		}
		if st.KeptZPlanes != len(planes) {
			t.Errorf("workers %d: kept planes %d want %d", workers, st.KeptZPlanes, len(planes))
		}
		if want := 16 * hp * len(rows); st.PlanesBytes != want {
			t.Errorf("workers %d: kept-row bytes %d want %d (%d rows)", workers, st.PlanesBytes, want, len(rows))
		}
		blocks := 16 * workers * max(k, len(planes)) * (fft.Tile*n + blockPad)
		if want := st.SlabBytes + st.PlanesBytes + blocks + st.SampleBytes; st.PeakBytes != want {
			t.Errorf("workers %d: peak %d want %d", workers, st.PeakBytes, want)
		}
		if st.ModelBytes != 8*n*n*k {
			t.Errorf("model bytes %d want %d", st.ModelBytes, 8*n*n*k)
		}
		if st.PencilCount != h*n {
			t.Errorf("pencils %d want %d", st.PencilCount, h*n)
		}
		if st.SampleCount != tree.SampleCount() {
			t.Errorf("samples %d want %d", st.SampleCount, tree.SampleCount())
		}
	}
}

func TestNewLocalErrors(t *testing.T) {
	dim := grid.Cube(16)
	tree, err := sample.Uniform{Rate: 2}.Tree(dim)
	if err != nil {
		t.Fatal(err)
	}
	pw := KernelPointwise(dim, green.Delta{})
	if _, err := NewLocal(grid.Dim3{Nx: 16, Ny: 16, Nz: 8}, grid.CubeAt(grid.Point{0, 0, 0}, 4), tree, pw, Config{}); err == nil {
		t.Error("non-cubic grid should fail")
	}
	if _, err := NewLocal(dim, grid.CubeAt(grid.Point{14, 0, 0}, 4), tree, pw, Config{}); err == nil {
		t.Error("sub-domain outside grid should fail")
	}
	if _, err := NewLocal(dim, grid.BoxAt(grid.Point{0, 0, 0}, 4, 4, 2), tree, pw, Config{}); err == nil {
		t.Error("non-cubic sub-domain should fail")
	}
	otherTree, err := sample.Uniform{Rate: 2}.Tree(grid.Cube(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLocal(dim, grid.CubeAt(grid.Point{0, 0, 0}, 4), otherTree, pw, Config{}); err == nil {
		t.Error("tree dim mismatch should fail")
	}
	local, err := NewLocal(dim, grid.CubeAt(grid.Point{0, 0, 0}, 4), tree, pw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := local.Run(grid.NewField(grid.Cube(8))); err == nil {
		t.Error("wrong sub field size should fail")
	}
}

func TestDecomposedApproximatesBaseline(t *testing.T) {
	// End-to-end proposed method on a full input: decompose, convolve each
	// sub-domain locally, accumulate — must track the traditional result.
	d := grid.Cube(32)
	f := blobField(d, 21)
	kernel := green.Gaussian{Sigma: 2}
	dc := Decomposed{Kernel: kernel, SubSize: 8, FarRate: 8}
	got, ds, err := dc.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Baseline(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := grid.RelL2(got, want)
	if r > 0.05 {
		t.Errorf("decomposed error %g > 5%%", r)
	}
	if ds.TotalBytes >= ds.DenseBytes {
		t.Errorf("compressed exchange %d must be < dense %d", ds.TotalBytes, ds.DenseBytes)
	}
	if len(ds.PerSub) != 64 {
		t.Errorf("expected 64 sub-domains, got %d", len(ds.PerSub))
	}
}

func TestDecomposedExactAtFullResolution(t *testing.T) {
	// The accumulation identity: with rate-1 trees (no compression) and a
	// delta kernel, decomposition + local convolution + accumulation must
	// reproduce the input exactly — Σ_d conv(δ, f·1_d) = f.
	d := grid.Cube(16)
	f := grid.NewField(d)
	rng := rand.New(rand.NewSource(4))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	got := policyRun(t, f, green.Delta{}, liveBoxes(t, f, 8), fullRes)
	if r, _ := grid.RelL2(got, f); r > 1e-10 {
		t.Errorf("full-resolution delta decomposition error %g", r)
	}
}

func TestDecomposedGaussianExactAtFullResolution(t *testing.T) {
	// Same identity with a smoothing kernel: Σ_d conv(g, f·1_d) = conv(g, f).
	d := grid.Cube(16)
	f := grid.NewField(d)
	rng := rand.New(rand.NewSource(6))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	kernel := green.Gaussian{Sigma: 1}
	got := policyRun(t, f, kernel, liveBoxes(t, f, 8), fullRes)
	want, err := Baseline(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(got, want); r > 1e-10 {
		t.Errorf("full-resolution decomposition error %g", r)
	}
}

func TestAccumulateDimMismatch(t *testing.T) {
	tree, err := sample.Uniform{Rate: 1, CellSize: 4}.Tree(grid.Cube(8))
	if err != nil {
		t.Fatal(err)
	}
	c := sample.NewCompressed(tree)
	if _, err := Accumulate(grid.Cube(16), []*sample.Compressed{c}); err == nil {
		t.Error("dim mismatch should fail")
	}
}

func TestAccumulateRegion(t *testing.T) {
	d := grid.Cube(16)
	tree, err := sample.Uniform{Rate: 1, CellSize: 4}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := grid.NewField(d)
	for i := range f.Data {
		f.Data[i] = float64(i % 7)
	}
	c, err := sample.Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	region := grid.CubeAt(grid.Point{4, 4, 4}, 8)
	got, err := AccumulateRegion(d, []*sample.Compressed{c, c}, region)
	if err != nil {
		t.Fatal(err)
	}
	region.ForEach(func(x, y, z int) {
		if math.Abs(got.At(x, y, z)-2*f.At(x, y, z)) > 1e-12 {
			t.Fatalf("region accumulation wrong at (%d,%d,%d)", x, y, z)
		}
	})
	if got.At(0, 0, 0) != 0 {
		t.Error("outside region must stay zero")
	}
}

func TestDecomposedSkipsZeroSubdomains(t *testing.T) {
	// A single point source touches exactly one sub-domain; the other 63
	// must be skipped, Run's field is the loop's over the one live box, and
	// at full resolution that loop matches the baseline exactly.
	d := grid.Cube(32)
	f := grid.NewField(d)
	f.Set(5, 6, 7, 1)
	kernel := green.Gaussian{Sigma: 1.5}
	dc := Decomposed{Kernel: kernel, SubSize: 8, FarRate: 8}
	run, ds, err := dc.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if ds.SkippedZero != 63 {
		t.Errorf("skipped %d zero sub-domains, want 63", ds.SkippedZero)
	}
	if len(ds.PerSub) != 1 {
		t.Errorf("computed %d sub-domains, want 1", len(ds.PerSub))
	}
	live := liveBoxes(t, f, 8)
	sameField(t, run, policyRun(t, f, kernel, live, defaultPolicy(8)))
	got := policyRun(t, f, kernel, live, fullRes)
	want, err := Baseline(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(got, want); r > 1e-10 {
		t.Errorf("sparse-input result differs by %g", r)
	}
}

func TestKernelPointwiseSeparableFastPath(t *testing.T) {
	// The separable fast path must agree with the generic path exactly.
	d := grid.Dim3{Nx: 16, Ny: 8, Nz: 4}
	kernel := green.Gaussian{Sigma: 1.3}
	fast := KernelPointwise(d, kernel)
	generic := func(kx, ky, kz int, v complex128) complex128 {
		return v * complex(kernel.Hat(d, kx, ky, kz), 0)
	}
	v := complex(1.25, -0.5)
	tile := make([]complex128, fft.Tile*d.Nz)
	for ky := 0; ky < d.Ny; ky++ {
		for kx := 0; kx < d.Nx; kx++ {
			// One tile at a time, its first pencil at kx: fill the tile,
			// let the fast path rewrite it, compare every kz of every
			// pencil below Nx against the per-point Hat.
			for i := range tile {
				tile[i] = v
			}
			fast(kx, ky, [][]complex128{tile})
			for i, a := range tile {
				kz, j := i/fft.Tile, i%fft.Tile
				if kx+j >= d.Nx {
					continue // padding
				}
				b := generic(kx+j, ky, kz, v)
				if math.Abs(real(a-b)) > 1e-15 || math.Abs(imag(a-b)) > 1e-15 {
					t.Fatalf("(%d,%d,%d): fast %v generic %v", kx+j, ky, kz, a, b)
				}
			}
		}
	}
}

func TestRunAdaptiveSparseInputExact(t *testing.T) {
	// Two isolated blobs on a 32³ grid: the adaptive partition retains a
	// handful of boxes, RunAdaptive's field is the loop's over them, and
	// with rate-1 trees that loop is exact.
	d := grid.Cube(32)
	f := grid.NewField(d)
	f.Set(4, 4, 4, 1)
	f.Set(28, 20, 10, -0.5)
	kernel := green.Gaussian{Sigma: 1.5}
	dc := Decomposed{Kernel: kernel, SubSize: 16, FarRate: 8}
	run, ds, err := dc.RunAdaptive(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.PerSub) >= 8 {
		t.Errorf("adaptive partition kept %d boxes; expected a sparse handful", len(ds.PerSub))
	}
	boxes, err := grid.DecomposeAdaptive(d, 16, 4, grid.ActiveNonzero(f))
	if err != nil {
		t.Fatal(err)
	}
	sameField(t, run, policyRun(t, f, kernel, boxes, defaultPolicy(8)))
	got := policyRun(t, f, kernel, boxes, fullRes)
	want, err := Baseline(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(got, want); r > 1e-10 {
		t.Errorf("adaptive sparse result differs by %g", r)
	}
}

func TestRunAdaptiveMatchesRunOnDenseInput(t *testing.T) {
	// Fully dense input: the adaptive partition degenerates to the regular
	// one and must give the same answer as Run.
	d := grid.Cube(16)
	f := blobField(d, 9)
	for i := range f.Data {
		f.Data[i] += 0.01 // ensure every sub-domain active
	}
	kernel := green.Gaussian{Sigma: 2}
	dc := Decomposed{Kernel: kernel, SubSize: 8, FarRate: 8}
	a, _, err := dc.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	b, ds, err := dc.RunAdaptive(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ds.SkippedZero != 0 {
		t.Errorf("dense input skipped %d boxes", ds.SkippedZero)
	}
	// Same boxes in the same order under the same policy: the same bits.
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("voxel %d: RunAdaptive %g, Run %g", i, b.Data[i], a.Data[i])
		}
	}
}

func TestBaselineTranslationEquivariance(t *testing.T) {
	// Circular convolution commutes with circular shifts: shifting the
	// input shifts the output identically.
	d := grid.Cube(16)
	f := randSub(16, 44)
	kernel := green.Gaussian{Sigma: 1.5}
	base, err := Baseline(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	sx, sy, sz := 3, 7, 12
	shifted := grid.NewField(d)
	for z := 0; z < 16; z++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				shifted.Set((x+sx)%16, (y+sy)%16, (z+sz)%16, f.At(x, y, z))
			}
		}
	}
	got, err := Baseline(shifted, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 16; z++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				want := base.At(x, y, z)
				have := got.At((x+sx)%16, (y+sy)%16, (z+sz)%16)
				if math.Abs(want-have) > 1e-11 {
					t.Fatalf("equivariance violated at (%d,%d,%d): %g vs %g", x, y, z, want, have)
				}
			}
		}
	}
}

func TestConvolutionLinearityThroughKernelSum(t *testing.T) {
	// conv(Sum{A,B}, f) == conv(A, f) + conv(B, f).
	f := randSub(16, 77)
	a := green.Gaussian{Sigma: 1.5}
	b := green.Yukawa{Kappa: 1}
	oa, err := Baseline(f, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := Baseline(f, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	osum, err := Baseline(f, green.Sum{A: a, B: b}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := oa.Clone()
	if err := want.AddScaled(1, ob); err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(osum, want); r > 1e-12 {
		t.Errorf("kernel-sum linearity error %g", r)
	}
}

func TestConvolutionCompositionThroughKernelProduct(t *testing.T) {
	// conv(Product{A,B}, f) == conv(B, conv(A, f)).
	f := randSub(16, 78)
	a := green.Gaussian{Sigma: 1}
	b := green.Gaussian{Sigma: 1.2}
	once, err := Baseline(f, green.Product{A: a, B: b}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := Baseline(f, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Baseline(mid, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(once, twice); r > 1e-11 {
		t.Errorf("kernel-product composition error %g", r)
	}
}

func TestDecomposedParallelMatchesSerial(t *testing.T) {
	d := grid.Cube(32)
	f := blobField(d, 41)
	kernel := green.Gaussian{Sigma: 2}
	serial := Decomposed{Kernel: kernel, SubSize: 8, FarRate: 8,
		Cfg: Config{Workers: 1}}
	a, dsA, err := serial.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	parallel := serial
	parallel.Parallel = 4
	b, dsB, err := parallel.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := grid.RelL2(b, a); r > 1e-12 {
		t.Errorf("parallel result differs from serial by %g", r)
	}
	if len(dsA.PerSub) != len(dsB.PerSub) || dsA.TotalSamples != dsB.TotalSamples {
		t.Errorf("stats differ: %d/%d vs %d/%d",
			len(dsA.PerSub), dsA.TotalSamples, len(dsB.PerSub), dsB.TotalSamples)
	}
}

// fullRes is massif FullRes's policy: rate 1 everywhere, so the samples are
// the local convolution's values.
func fullRes(box grid.Box) sample.Policy {
	return sample.Policy{Sub: box, NearRate: 1, MidRate: 1, FarRate: 1}
}

// defaultPolicy is Decomposed's policy at far rate far.
func defaultPolicy(far int) func(grid.Box) sample.Policy {
	return func(box grid.Box) sample.Policy { return sample.DefaultPolicy(box, far) }
}

// liveBoxes is the k-decomposition of f without its all-zero boxes: the
// boxes Decomposed.Run convolves.
func liveBoxes(t *testing.T, f *grid.Field, k int) []grid.Box {
	t.Helper()
	boxes, err := grid.Decompose(f.Dim, k)
	if err != nil {
		t.Fatal(err)
	}
	var live []grid.Box
	for _, b := range boxes {
		if !f.BoxAllZero(b) {
			live = append(live, b)
		}
	}
	return live
}

// policyRun is Decomposed's box loop written out: each box placed by
// PlanSet.NewPolicyLocal under policy and run on f's values, then every
// result added by Accumulate in box order.
func policyRun(t *testing.T, f *grid.Field, kernel green.Kernel, boxes []grid.Box, policy func(grid.Box) sample.Policy) *grid.Field {
	t.Helper()
	plans, err := NewPlanSet(f.Dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	pw := KernelPointwise(f.Dim, kernel)
	results := make([]*sample.Compressed, len(boxes))
	for i, box := range boxes {
		local, err := plans.NewPolicyLocal(policy(box), 1, pw, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := f.ExtractBox(box)
		if err != nil {
			t.Fatal(err)
		}
		if results[i], _, err = local.Run(sub); err != nil {
			t.Fatal(err)
		}
	}
	out, err := Accumulate(f.Dim, results)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameField fails unless got and want hold the same bits.
func sameField(t *testing.T, got, want *grid.Field) {
	t.Helper()
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("element %d: %g, want %g", i, got.Data[i], w)
		}
	}
}
