package sample

import (
	"bytes"
	"math"
	"testing"

	"lowcomm3d/internal/grid"
)

func fuzzSeedStream(f *testing.F, version32 bool) []byte {
	tree, err := Uniform{Rate: 2, CellSize: 8}.Tree(grid.Cube(16))
	if err != nil {
		f.Fatal(err)
	}
	c := NewCompressed(tree)
	for i := range c.Samples {
		c.Samples[i] = float64(i)*0.25 - 3
	}
	var buf bytes.Buffer
	if version32 {
		_, err = c.WriteTo32(&buf)
	} else {
		_, err = c.WriteTo(&buf)
	}
	if err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCompressedIO feeds ReadCompressed arbitrary streams: malformed input
// must return an error — never panic, never allocate unbounded memory from
// a lying header — and any stream it accepts must round-trip bit-exactly
// through WriteTo (or to float32 precision through WriteTo32). On every
// input, ReadCompressed, decodeBytes and the pre-rewrite reference decoder
// must agree, value or error.
func FuzzCompressedIO(f *testing.F) {
	v64 := fuzzSeedStream(f, false)
	v32 := fuzzSeedStream(f, true)
	f.Add(v64)
	f.Add(v32)
	f.Add([]byte{})
	f.Add([]byte("not a compressed stream"))
	f.Add(v64[:20])         // truncated mid-header
	f.Add(v64[:len(v64)-3]) // truncated mid-payload
	corrupt := bytes.Clone(v64)
	corrupt[9] ^= 0xff // mangle the grid size
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeAllWays(t, data)
		if err != nil {
			return // clean rejection is the contract for malformed streams
		}
		if len(c.Samples) != c.Tree.SampleCount() {
			t.Fatalf("decoded %d samples, tree wants %d", len(c.Samples), c.Tree.SampleCount())
		}
		// Accepted streams must round-trip: full precision bit-exact…
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatalf("re-encoding accepted stream: %v", err)
		}
		c2, err := ReadCompressed(&buf)
		if err != nil {
			t.Fatalf("re-reading own encoding: %v", err)
		}
		if len(c2.Samples) != len(c.Samples) || len(c2.Tree.Cells) != len(c.Tree.Cells) {
			t.Fatalf("round-trip shape mismatch: %d/%d samples, %d/%d cells",
				len(c2.Samples), len(c.Samples), len(c2.Tree.Cells), len(c.Tree.Cells))
		}
		for i := range c.Samples {
			a, b := c.Samples[i], c2.Samples[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("sample %d changed across round-trip: %g != %g", i, a, b)
			}
		}
		// …and float32 precision within float32 rounding.
		buf.Reset()
		if _, err := c.WriteTo32(&buf); err != nil {
			t.Fatalf("re-encoding float32: %v", err)
		}
		c3, err := ReadCompressed(&buf)
		if err != nil {
			t.Fatalf("re-reading float32 encoding: %v", err)
		}
		for i := range c.Samples {
			want := float64(float32(c.Samples[i]))
			got := c3.Samples[i]
			if want != got && !(math.IsNaN(want) && math.IsNaN(got)) {
				t.Fatalf("float32 sample %d: %g != %g", i, got, want)
			}
		}
	})
}
