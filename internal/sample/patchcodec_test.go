package sample_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
	"lowcomm3d/internal/sample"
)

// The patch codec — what carries the cells of a rank's results to the
// ranks whose boxes read them — is cluster.Exchange's Encode and Decode: a
// message holds per box its index and each component's values, and the
// receiver rebuilds every sample.Patch from the shared plan. These tests
// hold that codec to the patch contract from this side: the patches a
// receiver adds with sample.AddPatches sum, bit for bit, to what
// sample.AddResults makes of the senders' whole results, and a message the
// plan does not describe is refused before anything is sized from it.

// fabric is the exchange of C component results of the eight 8³ boxes of
// a 16³ grid on p ranks, each box's results on DefaultPolicy's tree at far
// rate 4, with the trees it was given, by box.
type fabric struct {
	x     *cluster.Exchange
	trees []*octree.Tree
}

var fabricDim = grid.Cube(16)

func newFabric(t testing.TB, p, comps int) fabric {
	t.Helper()
	trees := make([]*octree.Tree, 8)
	x, err := cluster.NewExchange(fabricDim, 8, p, comps, func(j int, b grid.Box) (*octree.Tree, error) {
		tr, err := sample.DefaultPolicy(b, 4).Tree(fabricDim)
		trees[j] = tr
		return tr, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fabric{x: x, trees: trees}
}

// results returns C results per box, by box, holding random values.
func (f fabric) results(rng *rand.Rand, comps int) [][]*sample.Compressed {
	outs := make([][]*sample.Compressed, len(f.trees))
	for j, tr := range f.trees {
		for range comps {
			c := sample.NewCompressed(tr)
			for s := range c.Samples {
				c.Samples[s] = rng.NormFloat64()
			}
			outs[j] = append(outs[j], c)
		}
	}
	return outs
}

// messages returns what rank q sends every rank: its owned boxes' results.
func (f fabric) messages(q int, outs [][]*sample.Compressed) [][]float64 {
	src := f.x.Owned(q)
	mine := make([][]*sample.Compressed, len(src))
	for i, j := range src {
		mine[i] = outs[j]
	}
	return f.x.Encode(src, mine)
}

// roundTrip runs the exchange on p ranks — every rank encodes, decodes
// what it receives and adds it into its own boxes — and reports whether
// each component's field equals sample.AddResults over every box's result
// in box order, bit for bit, and whether each rank's groups hold exactly
// the values its messages carry.
func (f fabric) roundTrip(t *testing.T, p int, outs [][]*sample.Compressed) bool {
	t.Helper()
	comps := len(outs[0])
	msgs := make([][][]float64, p)
	for q := range p {
		msgs[q] = f.messages(q, outs)
	}
	got := make([]*grid.Field, comps)
	for c := range got {
		got[c] = grid.NewField(fabricDim)
	}
	for to := range p {
		recv, sent := make([][]float64, p), 0
		for q := range p {
			recv[q] = msgs[q][to]
			sent += len(recv[q])
		}
		gs, err := f.x.Decode(to, recv)
		if err != nil {
			t.Errorf("P=%d C=%d rank %d: %v", p, comps, to, err)
			return false
		}
		held := 0
		for _, g := range gs {
			held++
			for _, v := range g.Vals {
				held += len(v)
			}
		}
		if held != sent {
			t.Errorf("P=%d C=%d rank %d: groups hold %d values of the %d sent", p, comps, to, held, sent)
			return false
		}
		if err := f.x.Accumulate(to, gs, func(_, c int) (*grid.Field, grid.Point) { return got[c], grid.Point{} }); err != nil {
			t.Errorf("P=%d C=%d rank %d: %v", p, comps, to, err)
			return false
		}
	}
	for c := range comps {
		var rs []*sample.Compressed
		for _, o := range outs {
			rs = append(rs, o[c])
		}
		want := grid.NewField(fabricDim)
		if err := sample.AddResults(want, fabricDim.Bounds(), rs, 1); err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Data {
			if math.Float64bits(got[c].Data[i]) != math.Float64bits(v) {
				t.Errorf("P=%d C=%d component %d: voxel %d is %v, want %v", p, comps, c, i, got[c].Data[i], v)
				return false
			}
		}
	}
	return true
}

// refused reports whether decoding msg from rank 0 on rank 1 fails with an
// error that names rank 0.
func refused(f fabric, msg []float64) bool {
	_, err := f.x.Decode(1, [][]float64{msg, nil})
	return err != nil && strings.Contains(err.Error(), "rank 0 ")
}

func TestPatchCodecQuick(t *testing.T) {
	// Property: any rank count and component count, on any values, round-trips.
	check := func(seed int64, p, comps uint8) bool {
		n, c := 1+int(p)%5, 1+int(comps)%3
		f := newFabric(t, n, c)
		return f.roundTrip(t, n, f.results(rand.New(rand.NewSource(seed)), c))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestDecodePatchesMalformed: a message whose groups are not the lengths
// the plan gives them is refused, naming the sender — for one component
// and for three.
func TestDecodePatchesMalformed(t *testing.T) {
	for _, comps := range []int{1, 3} {
		f := newFabric(t, 2, comps)
		msg := f.messages(0, f.results(rand.New(rand.NewSource(1)), comps))[1]
		gs, err := f.x.Decode(1, [][]float64{msg, nil})
		if err != nil || len(gs) < 2 {
			t.Fatalf("C=%d: rank 0's real message: %d groups, %v", comps, len(gs), err)
		}
		g0 := 1 + comps*len(gs[0].Vals[0]) // the first group's length
		for name, bad := range map[string][]float64{
			"a box index alone":          msg[:1],
			"a group without its values": msg[:g0+1],
			"a group cut by one value":   msg[:g0-1],
			"a message cut by one value": msg[:len(msg)-1],
			"trailing values":            append(slices.Clone(msg), 0),
			"the first group twice":      append(slices.Clone(msg[:g0]), msg...),
		} {
			if !refused(f, bad) {
				t.Errorf("C=%d: %s was not refused naming rank 0", comps, name)
			}
		}
	}
}

// TestDecodeRejectsLyingHeaders: the box index is the one header a message
// still carries, and one that would size or index past the plan — huge,
// infinite, NaN, negative, fractional, past the decomposition, a box the
// sender does not own, or out of order — is refused before its values are
// read, for one component and for six.
func TestDecodeRejectsLyingHeaders(t *testing.T) {
	for _, comps := range []int{1, 6} {
		f := newFabric(t, 2, comps) // rank 0 owns the even boxes
		msg := f.messages(0, f.results(rand.New(rand.NewSource(2)), comps))[1]
		for _, v := range []float64{1e12, 1 << 53, math.Inf(1), math.Inf(-1), math.NaN(), -1, -2, 0.5, 8, 1, 3} {
			for _, bad := range [][]float64{{v}, append([]float64{v}, msg[1:]...)} {
				if !refused(f, bad) {
					t.Errorf("C=%d: a group for box %v (%d values) was not refused naming rank 0", comps, v, len(bad))
				}
			}
		}
		gs, err := f.x.Decode(1, [][]float64{msg, nil})
		if err != nil || len(gs) < 2 {
			t.Fatalf("C=%d: rank 0's real message: %d groups, %v", comps, len(gs), err)
		}
		g0 := 1 + comps*len(gs[0].Vals[0])
		g1 := 1 + comps*len(gs[1].Vals[0])
		if !refused(f, append(slices.Clone(msg[g0:g0+g1]), msg[:g0]...)) {
			t.Errorf("C=%d: groups out of box order were not refused", comps)
		}
		// Rank 1's real groups, each as long as its route says, sent as
		// rank 0's: every box in it is one rank 0 does not own.
		if !refused(f, f.messages(1, f.results(rand.New(rand.NewSource(2)), comps))[1]) {
			t.Errorf("C=%d: rank 1's groups sent as rank 0's were not refused", comps)
		}
	}
}

// TestPatchGroupsRoundTrip: one component on two ranks round-trips, empty
// messages decode into no groups, and a trailing fragment fails.
func TestPatchGroupsRoundTrip(t *testing.T) {
	f := newFabric(t, 2, 1)
	outs := f.results(rand.New(rand.NewSource(3)), 1)
	f.roundTrip(t, 2, outs)
	if gs, err := f.x.Decode(1, [][]float64{nil, nil}); err != nil || len(gs) != 0 {
		t.Errorf("empty messages: %d groups, %v", len(gs), err)
	}
	if msg := f.messages(0, outs)[1]; !refused(f, append(slices.Clone(msg), 3)) {
		t.Error("a trailing fragment should fail")
	}
}

// TestComponentPatchCodecRoundTrip: three components on three ranks
// round-trip, decoding them as four fails, and a message cut inside its
// last group's components fails.
func TestComponentPatchCodecRoundTrip(t *testing.T) {
	f := newFabric(t, 3, 3)
	outs := f.results(rand.New(rand.NewSource(4)), 3)
	f.roundTrip(t, 3, outs)
	msg := f.messages(0, outs)[1]
	if _, err := newFabric(t, 3, 4).x.Decode(1, [][]float64{msg, nil, nil}); err == nil {
		t.Error("decoding three-component groups as four should fail")
	}
	gs, err := f.x.Decode(1, [][]float64{msg, nil, nil})
	if err != nil || len(gs) == 0 {
		t.Fatalf("rank 0's real message: %d groups, %v", len(gs), err)
	}
	if last := len(gs[len(gs)-1].Vals[2]); !refused(f, msg[:len(msg)-last]) {
		t.Error("a group cut after two of three components should fail")
	}
}
