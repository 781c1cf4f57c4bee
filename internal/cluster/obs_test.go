package cluster

import (
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
)

// TestMeasuredCommMatchesModel is the headline cross-check of this layer:
// the bytes obs measures on the fabric must equal the paper's byte models
// EXACTLY — integer equality, no tolerance — for P ∈ {1, 2, 7}.
//
// Eq. 1 (traditional FFT): each slab-transpose all-to-all moves
// FFTTransposeFabricBytes(n, P) = 16·n³·(P−1)/P — one round of the
// complex grid carries the model's full 2×8-bytes-per-point numerator —
// so the two rounds of DistFFTConvolve satisfy the exact identity
// measured·P == 2·TCommFFTBytes(n)·(P−1).
//
// Eq. 6 (proposed): a worker shipping its k³ sub-domain plus sparse
// samples to each peer moves TOursBytes(n, k, r) per peer, so a full
// round measures P·(P−1)·TOursBytes.
func TestMeasuredCommMatchesModel(t *testing.T) {
	for _, P := range []int{1, 2, 7} {
		// n must be divisible by P for the slab decomposition; 14 exercises
		// the Bluestein (non-power-of-two) FFT path at P=7.
		n := 8
		if P == 7 {
			n = 14
		}

		// --- Eq. 1: the two transpose rounds of the traditional method.
		tr := obs.New()
		c, err := NewWithOptions(P, DefaultParams(), Options{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		f := grid.NewField(grid.Cube(n))
		for i := range f.Data {
			f.Data[i] = float64(i%17) - 8
		}
		if _, err := DistFFTConvolve(c, f, green.Gaussian{Sigma: 1.5}); err != nil {
			t.Fatalf("P=%d: DistFFTConvolve: %v", P, err)
		}
		colls := c.Stats.Collectives
		if len(colls) != 2 {
			t.Fatalf("P=%d: %d collective rounds, want 2", P, len(colls))
		}
		var measured int64
		for _, mc := range colls {
			if mc.Bytes != FFTTransposeFabricBytes(n, P) {
				t.Errorf("P=%d: round moved %d bytes, model says %d",
					P, mc.Bytes, FFTTransposeFabricBytes(n, P))
			}
			measured += mc.Bytes
		}
		// Exact integer identity against the Eq. 1 numerator: two complex
		// rounds at 16 B/point vs the model's two rounds at 8 B/point.
		if measured*int64(P) != 2*TCommFFTBytes(n)*int64(P-1) {
			t.Errorf("P=%d: measured %d bytes; measured·P=%d != 2·TCommFFTBytes·(P−1)=%d",
				P, measured, measured*int64(P), 2*TCommFFTBytes(n)*int64(P-1))
		}
		// The trace counter is the same measurement through the obs path.
		if got := tr.CounterValue("cluster.collective.bytes"); got != measured {
			t.Errorf("P=%d: trace counter %d != snapshot total %d", P, got, measured)
		}
		if got := tr.CounterValue("cluster.collective.rounds"); got != 2 {
			t.Errorf("P=%d: trace rounds %d, want 2", P, got)
		}
		// The model's α–β seconds for the round must match SimulatedSec's
		// collective contribution: ModelSec is exactly what recordCollective
		// added.
		for _, mc := range colls {
			want := float64(mc.Participants-1) * DefaultParams().MessageTime(mc.MaxPairBytes)
			if mc.ModelSec != want {
				t.Errorf("P=%d: ModelSec %g != (participants−1)·MessageTime = %g", P, mc.ModelSec, want)
			}
		}

		// --- Eq. 6: a synthetic sparse exchange of exactly k³ + SparseSamples
		// points per peer. n=32, k=8, r=4 divides exactly: (32³−8³)/4³ = 504.
		const en, ek, er = 32, 8, 4
		points := ek*ek*ek + SparseSamples(en, ek, er)
		tr2 := obs.New()
		c2, err := NewWithOptions(P, DefaultParams(), Options{Trace: tr2})
		if err != nil {
			t.Fatal(err)
		}
		err = c2.Run(func(w *Worker) error {
			out := make([][]float64, P)
			for q := 0; q < P; q++ {
				out[q] = make([]float64, points)
			}
			_, err := w.AllToAll(out)
			return err
		})
		if err != nil {
			t.Fatalf("P=%d: synthetic exchange: %v", P, err)
		}
		wantBytes := int64(P) * int64(P-1) * TOursBytes(en, ek, er)
		if got := tr2.CounterValue("cluster.collective.bytes"); got != wantBytes {
			t.Errorf("P=%d: Eq.6 exchange measured %d bytes, model P·(P−1)·TOursBytes = %d",
				P, got, wantBytes)
		}
	}
}

// TestLowCommExchangeBytesMatchesMeasured pins the implementation-exact
// prediction against the real pipeline: the single sparse exchange of
// LowCommConvolve must move exactly the bytes LowCommExchangeBytes
// computes from the decomposition geometry alone, at every P, N/P whole or
// not.
func TestLowCommExchangeBytesMatchesMeasured(t *testing.T) {
	const n, sub, far = 16, 8, 4
	d := grid.Cube(n)
	f := grid.NewField(d)
	for i := range f.Data {
		f.Data[i] = float64((i*7)%23) / 23
	}
	for _, P := range []int{2, 3, 4, 8} {
		predicted, err := LowCommExchangeBytes(d, P, sub, far)
		if err != nil {
			t.Fatal(err)
		}
		if predicted <= 0 {
			t.Fatalf("P=%d: predicted %d bytes, want > 0", P, predicted)
		}
		tr := obs.New()
		c, err := NewWithOptions(P, DefaultParams(), Options{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		res, err := LowCommConvolve(c, f, green.Gaussian{Sigma: 1.5}, sub, far, conv.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.FabricBytes != predicted {
			t.Errorf("P=%d: result reports %d fabric bytes, predicted %d", P, res.FabricBytes, predicted)
		}
		if got := tr.CounterValue("cluster.collective.bytes"); got != predicted {
			t.Errorf("P=%d: measured %d fabric bytes, predicted %d", P, got, predicted)
		}
		colls := c.Stats.Collectives
		if len(colls) != 1 {
			t.Fatalf("P=%d: %d collective rounds, want 1 (the single sparse exchange)", P, len(colls))
		}
		if colls[0].Bytes != predicted {
			t.Errorf("P=%d: round bytes %d != predicted %d", P, colls[0].Bytes, predicted)
		}
		// The per-round model input must be the true global max pair buffer.
		if colls[0].MaxPairBytes <= 0 || int64(colls[0].MaxPairBytes)*int64(P)*int64(P-1) < predicted {
			t.Errorf("P=%d: MaxPairBytes %d inconsistent with total %d over %d pairs",
				P, colls[0].MaxPairBytes, predicted, P*(P-1))
		}
	}
}

// TestCollectiveSpansRecorded checks each worker's collectives land on its
// own display track.
func TestCollectiveSpansRecorded(t *testing.T) {
	const P = 3
	tr := obs.New()
	c, err := NewWithOptions(P, DefaultParams(), Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(w *Worker) error {
		out := make([][]float64, P)
		for q := 0; q < P; q++ {
			out[q] = []float64{float64(w.ID)}
		}
		if _, err := w.AllToAll(out); err != nil {
			return err
		}
		if _, err := w.AllReduceSum([]float64{1}); err != nil {
			return err
		}
		_, err := w.Broadcast(0, []float64{2})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]map[int]bool{}
	for _, s := range tr.Spans() {
		if byName[s.Name] == nil {
			byName[s.Name] = map[int]bool{}
		}
		byName[s.Name][s.Track] = true
	}
	for _, name := range []string{"cluster.alltoall", "cluster.allreduce", "cluster.broadcast"} {
		if len(byName[name]) != P {
			t.Errorf("%s spans on %d tracks, want %d (one per worker)", name, len(byName[name]), P)
		}
	}
}
