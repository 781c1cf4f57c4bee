package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"lowcomm3d/internal/conv"
	"lowcomm3d/internal/green"
	"lowcomm3d/internal/grid"
)

// TestLowCommConvolvePinnedBits pins the field LowCommConvolve returns:
// the first 8 bytes, in hex, of SHA-256 over its values' little-endian
// Float64bits, for randGrid(N³, 11) under the Gaussian σ = 2 kernel. Every
// P returns conv.Decomposed.Run's field, so one hash serves every P, N/P
// whole or not. Bits are pinned on amd64 only, as conv's are.
func TestLowCommConvolvePinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits are pinned on amd64 only")
	}
	for _, c := range []struct {
		n, k, far int
		want      string
	}{
		{32, 8, 8, "90c0fd0ff0f2140c"},
		{64, 16, 16, "79adf7586538617e"},
	} {
		f := randGrid(grid.Cube(c.n), 11)
		for _, p := range []int{1, 3, 4} {
			cl, err := New(p, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			res, err := LowCommConvolve(cl, f, green.Gaussian{Sigma: 2}, c.k, c.far, conv.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var b [8]byte
			for _, v := range res.Field.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != c.want {
				t.Errorf("%d³/k%d, far %d, P=%d: field hash %s, want %s", c.n, c.k, c.far, p, got, c.want)
			}
		}
	}
}
