package cluster

import (
	"encoding/binary"
	"math"
	"testing"

	"lowcomm3d/internal/grid"
)

// FuzzExchangeDecode feeds rank 1 of the two-rank exchange of a 16³ grid at
// k 8, far rate 4, arbitrary values (the input bytes read as little-endian
// float64s) as the message of sender from mod 2, to exchanges of one
// component and of six: Decode must return groups or an error, never
// panic, and its groups must hold no more values than the message; the
// groups it accepts must add into rank 1's boxes. The committed corpus
// (cmd/genfuzzcorpus) holds rank 0's real message, that message cut by one
// value, and one whose first box rank 0 does not own.
func FuzzExchangeDecode(f *testing.F) {
	f.Add(0, []byte{})
	f.Add(1, make([]byte, 8))
	xs := []*Exchange{policyExchange(f, grid.Cube(16), 8, 2, 1, 4), policyExchange(f, grid.Cube(16), 8, 2, 6, 4)}
	f.Fuzz(func(t *testing.T, from int, data []byte) {
		msg := make([]float64, len(data)/8)
		for i := range msg {
			msg[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		recv := make([][]float64, 2)
		recv[(from%2+2)%2] = msg
		for _, x := range xs {
			gs, err := x.Decode(1, recv)
			if err != nil {
				continue
			}
			held := 0
			for _, g := range gs {
				held++
				for _, v := range g.Vals {
					held += len(v)
				}
			}
			if held > len(msg) {
				t.Fatalf("C=%d: %d groups hold %d values from a %d-value message", x.comps, len(gs), held, len(msg))
			}
			dst := grid.NewField(grid.Cube(16))
			if err := x.Accumulate(1, gs, func(int, int) (*grid.Field, grid.Point) { return dst, grid.Point{} }); err != nil {
				t.Fatalf("C=%d: accepted groups do not add: %v", x.comps, err)
			}
		}
	})
}
