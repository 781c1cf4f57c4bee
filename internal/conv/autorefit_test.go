package conv

import (
	"errors"
	"testing"

	"lowcomm3d/internal/gpu"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

// planPeak returns the modeled peak footprint of the n/k/r pipeline by
// simulating its allocation schedule on an effectively unbounded device.
func planPeak(t *testing.T, n, k, r int) int64 {
	t.Helper()
	mb, err := gpu.LocalConvMemory(n, k, r)
	if err != nil {
		t.Fatal(err)
	}
	big := &gpu.Device{Name: "plan", Capacity: 1 << 40}
	ok, peak := mb.FitsOn(big)
	if !ok || peak <= 0 {
		t.Fatalf("n=%d k=%d r=%d does not fit an unbounded device", n, k, r)
	}
	return peak
}

func TestRunAutoRefitHalvesSubSizeToFit(t *testing.T) {
	const n, r = 32, 8
	peak16 := planPeak(t, n, 16, r)
	peak8 := planPeak(t, n, 8, r)
	if peak8 >= peak16 {
		t.Fatalf("memory model not monotone in k: peak(k=8)=%d ≥ peak(k=16)=%d", peak8, peak16)
	}
	// A device that admits the k=8 pipeline but not the k=16 one.
	dev := &gpu.Device{Name: "half", Capacity: peak8 + (peak16-peak8)/2}

	f := blobField(grid.Cube(n), 21)
	dc := Decomposed{Kernel: green.Gaussian{Sigma: 2}, SubSize: 16, FarRate: r}
	got, ds, k, err := dc.RunAutoRefit(f, dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k != 8 {
		t.Errorf("admitted sub-domain size = %d, want 8", k)
	}
	if len(ds.PerSub) == 0 {
		t.Error("no sub-domains processed")
	}
	// Auto-refit must be exactly a RunAdaptive at the admitted size.
	direct := dc
	direct.SubSize = 8
	want, _, err := direct.RunAdaptive(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rel, _ := grid.RelL2(got, want); rel > 1e-12 {
		t.Errorf("auto-refit result differs from direct k=8 adaptive run by %g", rel)
	}
}

func TestRunAutoRefitKeepsFittingSize(t *testing.T) {
	const n, r = 32, 8
	// Plenty of room: the requested size must be kept as-is.
	dev := &gpu.Device{Name: "roomy", Capacity: 2 * planPeak(t, n, 16, r)}
	f := blobField(grid.Cube(n), 33)
	dc := Decomposed{Kernel: green.Gaussian{Sigma: 2}, SubSize: 16, FarRate: r}
	_, _, k, err := dc.RunAutoRefit(f, dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k != 16 {
		t.Errorf("admitted sub-domain size = %d, want the requested 16", k)
	}
}

func TestRunAutoRefitReportsOOMBelowFloor(t *testing.T) {
	const n, r = 32, 8
	// Too small for even the k=4 pipeline: typed OOM, no solve.
	dev := &gpu.Device{Name: "tiny", Capacity: planPeak(t, n, 4, r) / 2}
	f := blobField(grid.Cube(n), 5)
	dc := Decomposed{Kernel: green.Gaussian{Sigma: 2}, SubSize: 16, FarRate: r}
	if _, _, _, err := dc.RunAutoRefit(f, dev, 4); !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Errorf("got %v, want ErrOutOfMemory", err)
	}
}
