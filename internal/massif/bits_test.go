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

// TestSolveLowCommDistributedPinnedBits pins the distributed solve on one
// and four ranks the same way. On four its mean and residual sums add in
// another order than SolveLowComm's, so its hash is its own; on one it is
// SolveLowComm's.
func TestSolveLowCommDistributedPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits are pinned on amd64 only")
	}
	for _, c := range []struct {
		p    int
		want string
	}{
		{1, "54cf928fa6f779c2"},
		{4, "7ae713994c859faa"},
	} {
		m, E, opt := bitsProblem(t, 16, 8)
		cl, err := cluster.New(c.p, cluster.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveLowCommDistributed(cl, m, E, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := strainHash(res.Strain); got != c.want {
			t.Errorf("16³/k8, P=%d: strain hash %s, want %s", c.p, got, c.want)
		}
	}
}

// TestDenseSolversPinnedBits pins the strain of the three dense solves —
// SolveReference, SolveAccelerated and SolveReferenceDistributed on two and
// four ranks — on the 16³ problem of bitsProblem, six iterations each. The
// basic scheme projects the mean of Δε out from sums reduced over the
// ranks, so the slab solve's hash depends on P.
func TestDenseSolversPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits are pinned on amd64 only")
	}
	distributed := func(p int) func(*Microstructure, grid.SymTensor, Options) (*Result, error) {
		return func(m *Microstructure, E grid.SymTensor, opt Options) (*Result, error) {
			c, err := cluster.New(p, cluster.DefaultParams())
			if err != nil {
				return nil, err
			}
			return SolveReferenceDistributed(c, m, E, opt)
		}
	}
	for _, c := range []struct {
		name  string
		solve func(*Microstructure, grid.SymTensor, Options) (*Result, error)
		want  string
	}{
		{"SolveReference", SolveReference, "4eb64427e489d592"},
		{"SolveAccelerated", SolveAccelerated, "dee2ec482da02749"},
		{"SolveReferenceDistributed P=2", distributed(2), "eee7b145ea9dc0ac"},
		{"SolveReferenceDistributed P=4", distributed(4), "6f50ae94d0c83a99"},
	} {
		m, E, opt := bitsProblem(t, 16, 8)
		res, err := c.solve(m, E, opt.Options)
		if err != nil {
			t.Fatal(err)
		}
		if got := strainHash(res.Strain); got != c.want {
			t.Errorf("%s: strain hash %s, want %s (%d iterations, converged %v)", c.name, got, c.want, res.Iterations, res.Converged)
		}
	}
}
