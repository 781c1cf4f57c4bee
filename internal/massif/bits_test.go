package massif

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"lowcomm3d/internal/cluster"
	"lowcomm3d/internal/grid"
)

// strainHash is the first 8 bytes, in hex, of SHA-256 over the strain's
// little-endian Float64bits, concatenated in Voigt component order.
func strainHash(eps *grid.TensorField) string {
	h := sha256.New()
	var b [8]byte
	for _, f := range eps.Comp {
		for _, v := range f.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// bitsProblem is the pinned solve: a steel sphere of radius N/4 in a soft
// matrix at the centre of an N³ grid, under a fixed applied strain, six
// iterations of Algorithm 2 at sub-domain size k and far rate 8.
func bitsProblem(t *testing.T, n, k int) (*Microstructure, grid.SymTensor, LowCommOptions) {
	t.Helper()
	p0, p1 := steelAndSoft()
	m, err := NewMicrostructure(grid.Cube(n), p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSphere(grid.Point{n / 2, n / 2, n / 2}, float64(n)/4, 1); err != nil {
		t.Fatal(err)
	}
	E := grid.SymTensor{0.01, 0, 0, 0, 0, 0.002}
	return m, E, LowCommOptions{Options: Options{Tol: 1e-12, MaxIter: 6, Workers: 1}, SubSize: k, FarRate: 8}
}

// TestSolveLowCommPinnedBits pins the strain SolveLowComm returns, hashed
// by strainHash. A change to the local pipeline, the exchange or the
// accumulation that claims to keep every output bit must keep these. Bits
// are pinned on amd64 only, as conv's are.
func TestSolveLowCommPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits are pinned on amd64 only")
	}
	for _, c := range []struct {
		n, k int
		want string
	}{
		{16, 8, "54cf928fa6f779c2"},
		{32, 8, "d6d78c1028cd3bd9"},
	} {
		m, E, opt := bitsProblem(t, c.n, c.k)
		res, err := SolveLowComm(m, E, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := strainHash(res.Strain); got != c.want {
			t.Errorf("%d³/k%d: strain hash %s, want %s", c.n, c.k, got, c.want)
		}
	}
}

// TestSolveLowCommDistributedPinnedBits pins the distributed solve on four
// ranks the same way. Its mean and residual sums add in another order than
// SolveLowComm's, so its hash is its own.
func TestSolveLowCommDistributedPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits are pinned on amd64 only")
	}
	m, E, opt := bitsProblem(t, 16, 8)
	c, err := cluster.New(4, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveLowCommDistributed(c, m, E, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strainHash(res.Strain), "7ae713994c859faa"; got != want {
		t.Errorf("16³/k8, P=4: strain hash %s, want %s", got, want)
	}
}
