package cluster

import (
	"math"
	"math/rand"
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

func TestMessageTime(t *testing.T) {
	p := Params{Alpha: 1e-6, Beta: 1e-9}
	if got := p.MessageTime(1000); math.Abs(got-(1e-6+1e-6)) > 1e-18 {
		t.Errorf("message time %g", got)
	}
}

func TestEq1AndEq6Model(t *testing.T) {
	p := DefaultParams()
	// Paper claim: T_ours < T_Comm,FFT whenever r > 1 and k < N.
	for _, n := range []int{1024, 2048, 4096} {
		trad := p.TCommFFT(n, 1024)
		ours := p.TOurs(n, 128, 8, 1024)
		if ours >= trad {
			t.Errorf("N=%d: T_ours=%g not < T_FFT=%g", n, ours, trad)
		}
	}
	// Eq. 1 doubles with N³ and halves with P.
	if r := p.TCommFFT(2048, 64) / p.TCommFFT(1024, 64); math.Abs(r-8) > 1e-9 {
		t.Errorf("Eq1 N scaling = %g want 8", r)
	}
	if r := p.TCommFFT(1024, 64) / p.TCommFFT(1024, 128); math.Abs(r-2) > 1e-9 {
		t.Errorf("Eq1 P scaling = %g want 2", r)
	}
}

func TestSparseSamples(t *testing.T) {
	// (N³−k³)/r³ from Eq. 6.
	if got := SparseSamples(1024, 128, 8); got != (1024*1024*1024-128*128*128)/512 {
		t.Errorf("sparse samples = %d", got)
	}
	if got := SparseSamples(8, 8, 2); got != 0 {
		t.Errorf("k=N should have zero sparse samples, got %d", got)
	}
}

func TestCommModelSweep(t *testing.T) {
	p := DefaultParams()
	rows, err := p.CommModel([]int{512, 1024, 2048}, 64, 16, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Ratio <= 1 {
			t.Errorf("N=%d: ratio %g should exceed 1", r.N, r.Ratio)
		}
	}
	// Ratio grows with N: coarse sampling wins harder at scale.
	if rows[2].Ratio <= rows[0].Ratio {
		t.Errorf("ratio should grow with N: %g vs %g", rows[0].Ratio, rows[2].Ratio)
	}
	if _, err := p.CommModel([]int{64}, 128, 2, 4); err == nil {
		t.Error("k > N should fail")
	}
	if _, err := p.CommModel([]int{64}, 0, 2, 4); err == nil {
		t.Error("k = 0 should fail")
	}
}

func TestClusterSendRecv(t *testing.T) {
	c, err := New(3, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(w *Worker) error {
		next := (w.ID + 1) % 3
		prev := (w.ID + 2) % 3
		if err := w.Send(next, []float64{float64(w.ID)}); err != nil {
			return err
		}
		got, err := w.Recv(prev)
		if err != nil {
			return err
		}
		if int(got[0]) != prev {
			t.Errorf("worker %d received %v from %d", w.ID, got, prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bytes, msgs, _, _ := c.Stats.Snapshot()
	if msgs != 3 || bytes != 24 {
		t.Errorf("stats: %d messages, %d bytes", msgs, bytes)
	}
}

func TestAllToAllExchange(t *testing.T) {
	p := 4
	c, err := New(p, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(w *Worker) error {
		out := make([][]float64, p)
		for q := 0; q < p; q++ {
			out[q] = []float64{float64(w.ID*10 + q)}
		}
		in, err := w.AllToAll(out)
		if err != nil {
			return err
		}
		for q := 0; q < p; q++ {
			if int(in[q][0]) != q*10+w.ID {
				t.Errorf("worker %d: in[%d] = %v", w.ID, q, in[q])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, msgs, colls, simSec := c.Stats.Snapshot()
	if colls != 1 {
		t.Errorf("collectives = %d want 1", colls)
	}
	// Self-messages are free: 4 workers × 3 peers.
	if msgs != 12 {
		t.Errorf("messages = %d want 12", msgs)
	}
	if simSec <= 0 {
		t.Error("simulated time must be positive")
	}
}

func TestAllToAllWrongBufferCount(t *testing.T) {
	c, _ := New(2, DefaultParams())
	err := c.Run(func(w *Worker) error {
		_, err := w.AllToAll(make([][]float64, 1))
		if err == nil {
			t.Error("wrong buffer count should fail")
		}
		// Drain nothing; return promptly.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	c, _ := New(4, DefaultParams())
	err := c.Run(func(w *Worker) error {
		got, err := w.Broadcast(2, []float64{42})
		if err != nil {
			return err
		}
		if got[0] != 42 {
			t.Errorf("worker %d: broadcast got %v", w.ID, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, msgs, _, _ := c.Stats.Snapshot()
	if msgs != 3 {
		t.Errorf("broadcast messages = %d want 3", msgs)
	}
}

func randGrid(d grid.Dim3, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	f := grid.NewField(d)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func TestDistFFTConvolveMatchesBaseline(t *testing.T) {
	d := grid.Cube(16)
	f := randGrid(d, 1)
	kernel := green.Gaussian{Sigma: 1.5}
	want, err := conv.Baseline(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		c, err := New(p, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		got, err := DistFFTConvolve(c, f, kernel)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if r, _ := grid.RelL2(got, want); r > 1e-11 {
			t.Errorf("P=%d: distributed result differs by %g", p, r)
		}
		_, _, colls, _ := c.Stats.Snapshot()
		if colls != 2 {
			t.Errorf("P=%d: %d all-to-all rounds want 2 (one per transform direction)", p, colls)
		}
	}
}

func TestDistFFTConvolveErrors(t *testing.T) {
	c, _ := New(3, DefaultParams())
	if _, err := DistFFTConvolve(c, grid.NewField(grid.Cube(16)), green.Delta{}); err == nil {
		t.Error("grid not divisible by workers should fail")
	}
	c1, _ := New(1, DefaultParams())
	if _, err := DistFFTConvolve(c1, grid.NewField(grid.Dim3{Nx: 8, Ny: 8, Nz: 4}), green.Delta{}); err == nil {
		t.Error("non-cubic grid should fail")
	}
}

// sameBits reports the first voxel where got and want differ in any bit.
func sameBits(got, want *grid.Field) (int, bool) {
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			return i, false
		}
	}
	return 0, true
}

// TestLowCommConvolveMatchesSerialDecomposed: by linearity the distributed
// sum is the serial sum, and with every worker adding the received boxes
// in job order it is the same float64 sum — bit for bit, for any P. 64/8
// has far cells larger than k that straddle the z-slab boundaries; the
// sparse input leaves most boxes all-zero, so both sides skip them.
func TestLowCommConvolveMatchesSerialDecomposed(t *testing.T) {
	kernel := green.Gaussian{Sigma: 2}
	sparse := grid.NewField(grid.Cube(32))
	rng := rand.New(rand.NewSource(5))
	for _, p := range []grid.Point{{3, 4, 5}, {20, 9, 30}, {17, 17, 2}} {
		sparse.Set(p[0], p[1], p[2], rng.Float64()+0.5)
	}
	for _, tc := range []struct {
		name string
		f    *grid.Field
		k    int
	}{
		{"32-8", randGrid(grid.Cube(32), 7), 8},
		{"64-8", randGrid(grid.Cube(64), 8), 8},
		{"64-16", randGrid(grid.Cube(64), 9), 16},
		{"32-8-sparse", sparse, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.name == "64-8" {
				// 512 boxes four times over take minutes under the detector;
				// the sum's order does not depend on it, and the other shapes
				// run the same code paths.
				t.Skip("skipped under -race")
			}
			dc := conv.Decomposed{Kernel: kernel, SubSize: tc.k, FarRate: 8, Cfg: conv.Config{Workers: 1}}
			want, ds, err := dc.Run(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "32-8-sparse" && ds.SkippedZero == 0 {
				t.Errorf("sparse input skipped no box")
			}
			for _, p := range []int{1, 2, 4} {
				c, err := New(p, DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				got, err := LowCommConvolve(c, tc.f, kernel, tc.k, 8, conv.Config{Workers: 1})
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				if i, ok := sameBits(got.Field, want); !ok {
					t.Errorf("P=%d: voxel %d is %v, conv.Decomposed.Run has %v", p, i, got.Field.Data[i], want.Data[i])
				}
				_, _, colls, _ := c.Stats.Snapshot()
				if colls != 1 {
					t.Errorf("P=%d: %d all-to-all rounds want 1 (paper Fig. 1b)", p, colls)
				}
				if p > 1 && got.SampleBytes <= 0 {
					t.Errorf("P=%d: sample byte accounting missing", p)
				}
			}
		})
	}
}

func TestLowCommFewerRoundsThanTraditional(t *testing.T) {
	// The structural Fig. 1 claim: traditional needs one all-to-all per
	// transform direction (two for slab decomposition, four for pencil);
	// the proposed method needs exactly one, regardless of grid size.
	d := grid.Cube(32)
	f := randGrid(d, 3)
	kernel := green.Gaussian{Sigma: 2}

	cTrad, _ := New(4, DefaultParams())
	if _, err := DistFFTConvolve(cTrad, f, kernel); err != nil {
		t.Fatal(err)
	}
	cOurs, _ := New(4, DefaultParams())
	if _, err := LowCommConvolve(cOurs, f, kernel, 8, 8, conv.Config{}); err != nil {
		t.Fatal(err)
	}
	_, _, tradRounds, _ := cTrad.Stats.Snapshot()
	_, _, ourRounds, _ := cOurs.Stats.Snapshot()
	if ourRounds >= tradRounds {
		t.Errorf("rounds: ours %d, traditional %d", ourRounds, tradRounds)
	}
}

func TestNewClusterErrors(t *testing.T) {
	if _, err := New(0, DefaultParams()); err == nil {
		t.Error("zero workers should fail")
	}
}

func TestPencilFFTConvolveMatchesBaseline(t *testing.T) {
	d := grid.Cube(16)
	f := randGrid(d, 13)
	kernel := green.Gaussian{Sigma: 1.5}
	want, err := conv.Baseline(f, kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		c, err := New(p, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		got, err := PencilFFTConvolve(c, f, kernel)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if r, _ := grid.RelL2(got, want); r > 1e-11 {
			t.Errorf("P=%d: pencil result differs by %g", p, r)
		}
		// The Eq. 1 pattern: two all-to-alls per FFT, four per convolution.
		_, _, colls, _ := c.Stats.Snapshot()
		if colls != 4 {
			t.Errorf("P=%d: %d all-to-all rounds want 4", p, colls)
		}
	}
}

func TestPencilFFTConvolveErrors(t *testing.T) {
	c, _ := New(2, DefaultParams()) // not a perfect square
	if _, err := PencilFFTConvolve(c, grid.NewField(grid.Cube(16)), green.Delta{}); err == nil {
		t.Error("non-square worker count should fail")
	}
	c9, _ := New(9, DefaultParams())
	if _, err := PencilFFTConvolve(c9, grid.NewField(grid.Cube(16)), green.Delta{}); err == nil {
		t.Error("grid not divisible by process grid should fail")
	}
	c4, _ := New(4, DefaultParams())
	if _, err := PencilFFTConvolve(c4, grid.NewField(grid.Dim3{Nx: 8, Ny: 8, Nz: 4}), green.Delta{}); err == nil {
		t.Error("non-cubic grid should fail")
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, p := range []int{1, 3, 5} {
		c, err := New(p, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		err = c.Run(func(w *Worker) error {
			local := []float64{float64(w.ID), 1, float64(2 * w.ID)}
			total, err := w.AllReduceSum(local)
			if err != nil {
				return err
			}
			wantA := float64(p*(p-1)) / 2
			if total[0] != wantA || total[1] != float64(p) || total[2] != 2*wantA {
				t.Errorf("P=%d worker %d: total %v", p, w.ID, total)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
