package massif

import (
	"math"
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
)

func steelAndSoft() (Phase, Phase) {
	l1, m1 := green.LameFromENu(210, 0.3) // stiff phase
	l2, m2 := green.LameFromENu(70, 0.3)  // compliant phase
	return Phase{Lambda: l1, Mu: m1}, Phase{Lambda: l2, Mu: m2}
}

func TestNewMicrostructureErrors(t *testing.T) {
	if _, err := NewMicrostructure(grid.Cube(8)); err == nil {
		t.Error("no phases should fail")
	}
	if _, err := NewMicrostructure(grid.Cube(8), Phase{Lambda: 1, Mu: -1}); err == nil {
		t.Error("negative shear modulus should fail")
	}
}

func TestSetSphereVolumeFraction(t *testing.T) {
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(16), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		t.Fatal(err)
	}
	f := m.VolumeFraction(1)
	// Sphere of radius 4 in 16³: ~(4/3)π·64/4096 ≈ 6.5%.
	if f < 0.04 || f > 0.1 {
		t.Errorf("sphere volume fraction %g out of range", f)
	}
	if got := m.Phases[m.Index[m.Dim.Index(8, 8, 8)]]; got != p1 {
		t.Error("center must be inclusion phase")
	}
	if got := m.Phases[m.Index[m.Dim.Index(0, 0, 0)]]; got != p0 {
		t.Error("corner must be matrix phase")
	}
	if err := m.SetSphere(grid.Point{0, 0, 0}, 1, 9); err == nil {
		t.Error("phase out of range should fail")
	}
}

func TestSetLaminate(t *testing.T) {
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(8), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLaminate(0, 4, 8, 1); err != nil {
		t.Fatal(err)
	}
	if f := m.VolumeFraction(1); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("laminate fraction %g want 0.5", f)
	}
	if err := m.SetLaminate(3, 0, 1, 1); err == nil {
		t.Error("bad axis should fail")
	}
	if err := m.SetLaminate(0, 0, 1, 7); err == nil {
		t.Error("bad phase should fail")
	}
}

func TestReferenceMedium(t *testing.T) {
	p0, p1 := steelAndSoft()
	m, _ := NewMicrostructure(grid.Cube(4), p0, p1)
	l0, m0 := m.ReferenceMedium()
	if l0 <= 0 || m0 <= 0 {
		t.Fatalf("reference medium (%g, %g) must be positive", l0, m0)
	}
	if math.Abs(l0-(p0.Lambda+p1.Lambda)/2) > 1e-12 {
		t.Errorf("λ₀ = %g", l0)
	}
	if math.Abs(m0-(p0.Mu+p1.Mu)/2) > 1e-12 {
		t.Errorf("μ₀ = %g", m0)
	}
}

func TestStressFieldDimMismatch(t *testing.T) {
	p0, _ := steelAndSoft()
	m, _ := NewMicrostructure(grid.Cube(4), p0)
	if _, err := m.StressField(grid.NewTensorField(grid.Cube(8)), nil); err == nil {
		t.Error("dim mismatch should fail")
	}
}

func TestHomogeneousConvergesImmediately(t *testing.T) {
	// For a single-phase material the applied strain is the solution and
	// the Green-operator correction is identically zero.
	p0, _ := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(8), p0)
	if err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	res, err := SolveReference(m, E, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("homogeneous: converged=%v iters=%d", res.Converged, res.Iterations)
	}
	for i := 0; i < m.Dim.Len(); i++ {
		eps := res.Strain.AtIndex(i)
		for v := range eps {
			if math.Abs(eps[v]-E[v]) > 1e-12 {
				t.Fatalf("strain not uniform at %d: %v", i, eps)
			}
		}
	}
	wantStress := p0.StressOf(E)
	got := res.MeanStress()
	for v := range got {
		if math.Abs(got[v]-wantStress[v]) > 1e-10 {
			t.Fatalf("mean stress %v want %v", got, wantStress)
		}
	}
}

// laminateAnalytic returns the exact per-phase axial strains and the
// uniform axial stress for a two-phase laminate (layers normal to x) under
// applied mean strain E_xx = e: series combination of the P-wave moduli
// M_i = λ_i + 2μ_i.
func laminateAnalytic(p0, p1 Phase, f1, e float64) (a0, a1, sxx float64) {
	m0 := p0.Lambda + 2*p0.Mu
	m1 := p1.Lambda + 2*p1.Mu
	f0 := 1 - f1
	sxx = e * m0 * m1 / (f0*m1 + f1*m0)
	return sxx / m0, sxx / m1, sxx
}

func TestLaminateMatchesAnalytic(t *testing.T) {
	p0, p1 := steelAndSoft()
	n := 16
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLaminate(0, n/2, n, 1); err != nil {
		t.Fatal(err)
	}
	e := 0.01
	E := grid.SymTensor{e, 0, 0, 0, 0, 0}
	res, err := SolveReference(m, E, Options{Tol: 1e-10, MaxIter: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("laminate did not converge in %d iterations (residual %g)",
			res.Iterations, res.Residuals[len(res.Residuals)-1])
	}
	a0, a1, sxx := laminateAnalytic(p0, p1, 0.5, e)
	// Axial stress must be uniform and match the series formula.
	got := res.MeanStress()
	if rel := math.Abs(got[grid.VXX]-sxx) / sxx; rel > 1e-6 {
		t.Errorf("mean σ_xx = %g want %g (rel %g)", got[grid.VXX], sxx, rel)
	}
	// Per-phase axial strain.
	if gotA0 := res.Strain.Comp[grid.VXX].At(1, 5, 7); math.Abs(gotA0-a0)/a0 > 1e-5 {
		t.Errorf("phase-0 strain %g want %g", gotA0, a0)
	}
	if gotA1 := res.Strain.Comp[grid.VXX].At(n-2, 3, 2); math.Abs(gotA1-a1)/a1 > 1e-5 {
		t.Errorf("phase-1 strain %g want %g", gotA1, a1)
	}
	// σ_xx pointwise uniformity (equilibrium across the interface).
	minS, maxS := math.Inf(1), math.Inf(-1)
	for _, v := range res.Stress.Comp[grid.VXX].Data {
		minS = math.Min(minS, v)
		maxS = math.Max(maxS, v)
	}
	if (maxS-minS)/sxx > 1e-5 {
		t.Errorf("σ_xx not uniform: spread %g", (maxS-minS)/sxx)
	}
	// Mean strain must stay pinned to E.
	meanEps := res.Strain.Mean()
	if math.Abs(meanEps[grid.VXX]-e) > 1e-12 {
		t.Errorf("mean strain drifted: %g", meanEps[grid.VXX])
	}
}

func TestSphereInclusionBetweenBounds(t *testing.T) {
	p0, p1 := steelAndSoft()
	n := 16
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 5, 1); err != nil {
		t.Fatal(err)
	}
	e := 0.01
	E := grid.SymTensor{e, 0, 0, 0, 0, 0}
	res, err := SolveReference(m, E, Options{Tol: 1e-8, MaxIter: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("sphere case did not converge")
	}
	// The effective axial stress must lie between the Reuss (series) and
	// Voigt (parallel) bounds for the P-wave modulus.
	f1 := m.VolumeFraction(1)
	m0 := p0.Lambda + 2*p0.Mu
	m1 := p1.Lambda + 2*p1.Mu
	reuss := e / ((1-f1)/m0 + f1/m1)
	voigt := e * ((1-f1)*m0 + f1*m1)
	got := res.MeanStress()[grid.VXX]
	if got < reuss*0.999 || got > voigt*1.001 {
		t.Errorf("σ_xx = %g outside bounds [%g, %g]", got, reuss, voigt)
	}
	// Residuals must be decreasing overall (fixed-point contraction).
	first := res.Residuals[0]
	last := res.Residuals[len(res.Residuals)-1]
	if last >= first {
		t.Errorf("residual did not decrease: %g → %g", first, last)
	}
}

func TestLowCommFullResMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second solver comparison; skipped in -short")
	}
	// Algorithm 2 with rate-1 sampling is mathematically identical to
	// Algorithm 1: the decomposed, locally-convolved, accumulated update
	// must match the full-grid spectral update to round-off.
	p0, p1 := steelAndSoft()
	n := 16
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0.002}
	opt := Options{Tol: 1e-6, MaxIter: 300}
	ref, err := SolveReference(m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	traced := opt
	traced.Trace = obs.New()
	low, err := SolveLowComm(m, E, LowCommOptions{
		Options: traced, SubSize: 8, FullRes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !low.Converged {
		t.Fatalf("low-comm full-res did not converge (residual %g)",
			low.Residuals[len(low.Residuals)-1])
	}
	// The solve's local convolutions are conv.Local runs and show up on its
	// stage histograms like every other caller's: one per box per iteration.
	if got, want := traced.Trace.Histogram("conv.stage_b_seconds").Snapshot("").Count, int64(low.Iterations*low.Comm.SubDomains); got != want {
		t.Errorf("conv.stage_b_seconds count %d, want iterations × boxes = %d", got, want)
	}
	r, err := grid.RelL2Tensor(low.Strain, ref.Strain)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-5 {
		t.Errorf("full-res low-comm strain differs from reference by %g", r)
	}
	if low.Iterations != ref.Iterations {
		t.Logf("iterations differ: low %d, ref %d (acceptable near tolerance)", low.Iterations, ref.Iterations)
	}
}

func TestLowCommAdaptiveApproximatesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second solver comparison; skipped in -short")
	}
	// The paper's operating point: adaptive sampling, error tolerable for
	// the fixed-point iteration ("convolution error up to 3% did not
	// largely impact convergence", §5.3).
	// A 32³ grid with 16³ sub-domains: large enough for the octree to
	// actually compress (at 16³ the endpoint lattice overhead dominates —
	// the paper's Table 1 wins start at N ≥ 1024 for the same reason).
	p0, p1 := steelAndSoft()
	n := 32
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{16, 16, 16}, 8, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0}
	opt := Options{Tol: 1e-3, MaxIter: 60}
	ref, err := SolveReference(m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	low, err := SolveLowComm(m, E, LowCommOptions{
		Options: opt, SubSize: 16, FarRate: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	refS := ref.MeanStress()[grid.VXX]
	lowS := low.MeanStress()[grid.VXX]
	if rel := math.Abs(lowS-refS) / refS; rel > 0.05 {
		t.Errorf("adaptive low-comm mean stress off by %g (ref %g, low %g)", rel, refS, lowS)
	}
	// The proposed method must exchange less data than the traditional
	// per-sub-domain dense results (Table 1's comparison).
	if low.Comm.BytesPerIter >= low.Comm.DenseBytesPerIter {
		t.Errorf("compressed exchange %d ≥ dense %d", low.Comm.BytesPerIter, low.Comm.DenseBytesPerIter)
	}
	if low.Comm.SubDomains != 8 {
		t.Errorf("sub-domains %d want 8", low.Comm.SubDomains)
	}
	if low.Comm.SamplesPerIter <= 0 {
		t.Error("sample accounting missing")
	}
}

func TestSolveReferenceZeroStrainFails(t *testing.T) {
	p0, _ := steelAndSoft()
	m, _ := NewMicrostructure(grid.Cube(4), p0)
	if _, err := SolveReference(m, grid.SymTensor{}, Options{}); err == nil {
		t.Error("zero applied strain should fail")
	}
	if _, err := SolveLowComm(m, grid.SymTensor{}, LowCommOptions{SubSize: 4}); err == nil {
		t.Error("zero applied strain should fail (low-comm)")
	}
}

func TestSolveLowCommBadSubSize(t *testing.T) {
	p0, _ := steelAndSoft()
	m, _ := NewMicrostructure(grid.Cube(8), p0)
	if _, err := SolveLowComm(m, grid.SymTensor{0.01, 0, 0, 0, 0, 0}, LowCommOptions{SubSize: 3}); err == nil {
		t.Error("non-divisible sub size should fail")
	}
}

func TestSetVoronoiDeterministicAndCovering(t *testing.T) {
	p0, p1 := steelAndSoft()
	m1, err := NewMicrostructure(grid.Cube(16), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.SetVoronoi(8, 42); err != nil {
		t.Fatal(err)
	}
	m2, _ := NewMicrostructure(grid.Cube(16), p0, p1)
	if err := m2.SetVoronoi(8, 42); err != nil {
		t.Fatal(err)
	}
	for i := range m1.Index {
		if m1.Index[i] != m2.Index[i] {
			t.Fatal("Voronoi not deterministic for fixed seed")
		}
	}
	// Both phases present with 8 grains round-robin over 2 phases.
	f1 := m1.VolumeFraction(1)
	if f1 <= 0 || f1 >= 1 {
		t.Errorf("phase-1 fraction %g must be strictly interior", f1)
	}
	if err := m1.SetVoronoi(0, 1); err == nil {
		t.Error("zero grains should fail")
	}
}

func TestVoronoiPolycrystalSolves(t *testing.T) {
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(16), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetVoronoi(6, 7); err != nil {
		t.Fatal(err)
	}
	e := 0.01
	E := grid.SymTensor{e, 0, 0, 0, 0, 0}
	res, err := SolveAccelerated(m, E, Options{Tol: 1e-8, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("polycrystal did not converge (residual %g)", res.Residuals[len(res.Residuals)-1])
	}
	// Effective response between Reuss and Voigt bounds.
	f1 := m.VolumeFraction(1)
	m0 := p0.Lambda + 2*p0.Mu
	m1v := p1.Lambda + 2*p1.Mu
	reuss := e / ((1-f1)/m0 + f1/m1v)
	voigt := e * ((1-f1)*m0 + f1*m1v)
	got := res.MeanStress()[grid.VXX]
	if got < reuss*0.999 || got > voigt*1.001 {
		t.Errorf("polycrystal σ_xx = %g outside [%g, %g]", got, reuss, voigt)
	}
}

// TestLowCommDeterministicAcrossWorkers: the tensor path is conv.Local, so
// it inherits its promise — the worker count decides only who computes a
// pencil and when, never a bit of it.
func TestLowCommDeterministicAcrossWorkers(t *testing.T) {
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(16), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{8, 8, 8}, 4, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0.002}
	var ref *LowCommResult
	for _, workers := range []int{1, 3} {
		got, err := SolveLowComm(m, E, LowCommOptions{
			Options: Options{Tol: 1e-12, MaxIter: 3, Workers: workers},
			SubSize: 8, FarRate: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for v := range ref.Strain.Comp {
			for i, want := range ref.Strain.Comp[v].Data {
				if math.Float64bits(got.Strain.Comp[v].Data[i]) != math.Float64bits(want) {
					t.Fatalf("workers %d: strain component %d voxel %d is %v, want %v",
						workers, v, i, got.Strain.Comp[v].Data[i], want)
				}
			}
		}
	}
}

// TestGammaOpPassesHermitianProbe: conv.Local carries only the half
// spectrum and refuses a callback that would break the symmetry it rebuilds
// the rest from; Γ̂ with its Nyquist modes zeroed keeps it on every grid,
// the all-Nyquist 2-grid included.
func TestGammaOpPassesHermitianProbe(t *testing.T) {
	p0, p1 := steelAndSoft()
	lambda0, mu0 := green.LameFromENu(140, 0.3)
	for _, n := range []int{2, 8, 32} {
		m, err := NewMicrostructure(grid.Cube(n), p0, p1)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := conv.NewPlanSet(m.Dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := LowCommOptions{Options: Options{Workers: 1}, FullRes: true}
		box := grid.CubeAt(grid.Point{n / 2, 0, n / 2}, n/2)
		if _, err := gammaLocal(plans, m, box, green.Gamma{Lambda0: lambda0, Mu0: mu0}, opt); err != nil {
			t.Errorf("n %d: %v", n, err)
		}
	}
}
