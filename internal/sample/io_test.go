package sample

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/octree"
)

// referenceWrite is the bufio + reflective binary.Write encoder WriteTo
// used to be, kept as the byte-identity oracle for the exact-size encoder.
func referenceWrite(c *Compressed, w io.Writer, version uint32) error {
	bw := bufio.NewWriter(w)
	parts := []any{
		[]uint32{ioMagic, version, uint32(c.Tree.Dim.Nx), uint32(len(c.Tree.Cells))},
		uint64(len(c.Samples)),
		c.Tree.EncodeMeta(),
	}
	if version == ioVersion32 {
		s32 := make([]float32, len(c.Samples))
		for i, v := range c.Samples {
			s32[i] = float32(v)
		}
		parts = append(parts, s32)
	} else {
		parts = append(parts, c.Samples)
	}
	for _, v := range parts {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// referenceRead is the bufio + reflective binary.Read decoder
// ReadCompressed used to be (field by field, chunk by chunk), kept as the
// oracle for which streams are accepted and what they decode to.
func referenceRead(r io.Reader) (*Compressed, error) {
	br := bufio.NewReader(r)
	var header [4]uint32
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("reading header: %w", err)
		}
	}
	if header[0] != ioMagic {
		return nil, fmt.Errorf("bad magic %#x", header[0])
	}
	if header[1] != ioVersion && header[1] != ioVersion32 {
		return nil, fmt.Errorf("unsupported version %d", header[1])
	}
	n, cells := int(header[2]), int(header[3])
	if n <= 0 || n > 1<<20 || cells <= 0 || cells > 1<<28 {
		return nil, fmt.Errorf("implausible header n=%d cells=%d", n, cells)
	}
	var sampleCount uint64
	if err := binary.Read(br, binary.LittleEndian, &sampleCount); err != nil {
		return nil, fmt.Errorf("reading sample count: %w", err)
	}
	if sampleCount > 1<<40 {
		return nil, fmt.Errorf("implausible sample count %d", sampleCount)
	}
	var meta []int32
	for remaining := octree.IntsPerCell * cells; remaining > 0; {
		buf := make([]int32, min(remaining, ioChunk))
		if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("reading metadata: %w", err)
		}
		meta = append(meta, buf...)
		remaining -= len(buf)
	}
	tree, err := octree.DecodeMeta(n, meta, int(sampleCount))
	if err != nil {
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if tree.SampleCount() != int(sampleCount) {
		return nil, fmt.Errorf("tree needs %d samples, file has %d", tree.SampleCount(), sampleCount)
	}
	var samples []float64
	for remaining := int(sampleCount); remaining > 0; {
		chunk := min(remaining, ioChunk)
		if header[1] == ioVersion32 {
			s32 := make([]float32, chunk)
			if err := binary.Read(br, binary.LittleEndian, s32); err != nil {
				return nil, fmt.Errorf("reading samples: %w", err)
			}
			for _, v := range s32 {
				samples = append(samples, float64(v))
			}
		} else {
			buf := make([]float64, chunk)
			if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
				return nil, fmt.Errorf("reading samples: %w", err)
			}
			samples = append(samples, buf...)
		}
		remaining -= chunk
	}
	return &Compressed{Tree: tree, Samples: samples}, nil
}

// sameDecode fails the test unless two decodes of one stream agree: both
// errors, or the same tree and bit-identical samples.
func sameDecode(tb testing.TB, what string, a *Compressed, aerr error, b *Compressed, berr error) {
	tb.Helper()
	if (aerr == nil) != (berr == nil) {
		tb.Fatalf("%s: errors disagree: %v vs %v", what, aerr, berr)
	}
	if aerr != nil {
		return
	}
	if a.Tree.Dim != b.Tree.Dim || len(a.Tree.Cells) != len(b.Tree.Cells) || len(a.Samples) != len(b.Samples) {
		tb.Fatalf("%s: shapes disagree: %v/%d cells/%d samples vs %v/%d/%d", what,
			a.Tree.Dim, len(a.Tree.Cells), len(a.Samples), b.Tree.Dim, len(b.Tree.Cells), len(b.Samples))
	}
	for i := range a.Tree.Cells {
		if a.Tree.Cells[i] != b.Tree.Cells[i] {
			tb.Fatalf("%s: cell %d: %+v vs %+v", what, i, a.Tree.Cells[i], b.Tree.Cells[i])
		}
	}
	for i := range a.Samples {
		if math.Float64bits(a.Samples[i]) != math.Float64bits(b.Samples[i]) {
			tb.Fatalf("%s: sample %d: %g vs %g", what, i, a.Samples[i], b.Samples[i])
		}
	}
}

// decodeAllWays decodes one stream through ReadCompressed, decodeBytes and
// the reference decoder, fails the test if any two disagree (value or
// error — and, between the two that share decode, error text), and returns
// ReadCompressed's answer.
func decodeAllWays(tb testing.TB, stream []byte) (*Compressed, error) {
	tb.Helper()
	got, err := ReadCompressed(bytes.NewReader(stream))
	fromBytes, berr := decodeBytes(stream)
	sameDecode(tb, "ReadCompressed vs decodeBytes", got, err, fromBytes, berr)
	if err != nil && err.Error() != berr.Error() {
		tb.Fatalf("ReadCompressed: %v, decodeBytes: %v", err, berr)
	}
	ref, rerr := referenceRead(bytes.NewReader(stream))
	sameDecode(tb, "ReadCompressed vs reference", got, err, ref, rerr)
	return got, err
}

// TestEncodeMatchesReference pins the stream format across the encoder
// rewrite: the exact-size encoder emits, byte for byte, what the reflective
// bufio encoder did, at both precisions — and every way of decoding reads
// it back alike.
func TestEncodeMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n    int
		tree func(grid.Dim3) (*octree.Tree, error)
	}{
		{16, Uniform{Rate: 2, CellSize: 8}.Tree},
		{32, DefaultPolicy(grid.CubeAt(grid.Point{8, 8, 8}, 8), 8).Tree},
		{64, DefaultPolicy(grid.CubeAt(grid.Point{16, 16, 16}, 16), 16).Tree},
	} {
		d := grid.Cube(tc.n)
		tree, err := tc.tree(d)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compress(smoothField(d), tree)
		if err != nil {
			t.Fatal(err)
		}
		c.Samples[0], c.Samples[1] = math.NaN(), math.Inf(-1)
		for _, version := range []uint32{ioVersion, ioVersion32} {
			var want, got bytes.Buffer
			if err := referenceWrite(c, &want, version); err != nil {
				t.Fatal(err)
			}
			n, err := c.writeVersion(&got, version)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(got.Len()) || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("n=%d version %d: encoder wrote %d bytes (reported %d), reference %d; equal=%v",
					tc.n, version, got.Len(), n, want.Len(), bytes.Equal(got.Bytes(), want.Bytes()))
			}
			if _, err := decodeAllWays(t, got.Bytes()); err != nil {
				t.Fatalf("n=%d version %d: %v", tc.n, version, err)
			}
		}
		stream, err := c.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := referenceWrite(c, &want, ioVersion); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream, want.Bytes()) {
			t.Fatalf("n=%d: EncodeBytes differs from the reference float64 stream", tc.n)
		}
	}
}

// TestDecodeAllocationBoundedByBytesHeld pins the hardening rule for both
// decoders: a header that claims far more cells or samples than the stream
// carries fails at EOF without allocating ahead of the bytes in hand.
func TestDecodeAllocationBoundedByBytesHeld(t *testing.T) {
	le := binary.LittleEndian
	header := func(n, cells uint32, samples uint64) []byte {
		h := le.AppendUint32(nil, ioMagic)
		h = le.AppendUint32(h, ioVersion)
		h = le.AppendUint32(h, n)
		h = le.AppendUint32(h, cells)
		return le.AppendUint64(h, samples)
	}
	// 2²⁸ cells claimed (5.4 GB of metadata), two cells' worth delivered.
	lyingCells := append(header(1024, 1<<28, 27), make([]byte, 40)...)
	// One valid rate-1 cell over a 1024³ grid: a 1025³-point lattice, 8.6 GB
	// of samples claimed, 64 bytes delivered.
	lyingSamples := header(1024, 1, 1025*1025*1025)
	for _, m := range []uint32{0, 0, 0, 1, 0} {
		lyingSamples = le.AppendUint32(lyingSamples, m)
	}
	lyingSamples = append(lyingSamples, make([]byte, 64)...)
	for name, stream := range map[string][]byte{"cells": lyingCells, "samples": lyingSamples} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := decodeAllWays(t, stream); err == nil {
			t.Fatalf("%s: lying stream decoded", name)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Errorf("%s: decoding a %d-byte lying stream three ways allocated %d bytes", name, len(stream), grew)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := grid.Cube(32)
	sub := grid.CubeAt(grid.Point{8, 8, 8}, 8)
	tree, err := DefaultPolicy(sub, 8).Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	f := smoothField(d)
	c, err := Compress(f, tree)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tree.Dim != c.Tree.Dim || len(back.Tree.Cells) != len(c.Tree.Cells) {
		t.Fatalf("tree mismatch after round trip")
	}
	for i := range c.Tree.Cells {
		if back.Tree.Cells[i] != c.Tree.Cells[i] {
			t.Fatalf("cell %d mismatch", i)
		}
	}
	for i := range c.Samples {
		if back.Samples[i] != c.Samples[i] {
			t.Fatalf("sample %d mismatch", i)
		}
	}
	// The reconstruction is byte-identical.
	r1, err := c.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := back.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Data {
		if r1.Data[i] != r2.Data[i] {
			t.Fatalf("reconstruction differs at %d", i)
		}
	}
}

func TestReadCompressedErrors(t *testing.T) {
	// Empty stream.
	if _, err := ReadCompressed(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail")
	}
	// Bad magic.
	bad := make([]byte, 64)
	if _, err := ReadCompressed(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated valid stream.
	d := grid.Cube(16)
	tree, err := Uniform{Rate: 2, CellSize: 8}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(smoothField(d), tree)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{8, 20, len(full) / 2, len(full) - 8} {
		if _, err := ReadCompressed(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
	// Corrupted metadata (overlapping cells) must fail validation.
	corrupt := append([]byte(nil), full...)
	// Cell metadata starts after 4×uint32 + uint64 = 24 bytes; smash the
	// second cell's corner onto the first.
	for i := 24 + 20; i < 24+20+12 && i < len(corrupt); i++ {
		corrupt[i] = 0
	}
	if _, err := ReadCompressed(bytes.NewReader(corrupt)); err == nil {
		t.Error("corrupted metadata should fail")
	}
}

func TestWriteToDetectsInconsistentSamples(t *testing.T) {
	d := grid.Cube(8)
	tree, err := Uniform{Rate: 2, CellSize: 4}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompressed(tree)
	c.Samples = c.Samples[:1]
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err == nil {
		t.Error("inconsistent sample count should fail")
	}
}

func TestWriteTo32HalvesBytes(t *testing.T) {
	d := grid.Cube(32)
	tree, err := Uniform{Rate: 2, CellSize: 8}.Tree(d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(smoothField(d), tree)
	if err != nil {
		t.Fatal(err)
	}
	var b64, b32 bytes.Buffer
	if _, err := c.WriteTo(&b64); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteTo32(&b32); err != nil {
		t.Fatal(err)
	}
	if b32.Len() >= b64.Len()*3/4 {
		t.Errorf("float32 stream %d should be well under float64 %d", b32.Len(), b64.Len())
	}
	back, err := ReadCompressed(&b32)
	if err != nil {
		t.Fatal(err)
	}
	// Precision loss bounded by float32 epsilon.
	for i := range c.Samples {
		d := back.Samples[i] - c.Samples[i]
		if d < 0 {
			d = -d
		}
		scale := c.Samples[i]
		if scale < 0 {
			scale = -scale
		}
		if d > 1e-6*(scale+1) {
			t.Fatalf("sample %d: float32 round trip error %g", i, d)
		}
	}
}

// codecBenchSizes are the (N, k) sub-domain results the codec benchmarks
// run on: the §5.4 policy tree of an interior box, far rate 16.
var codecBenchSizes = []struct{ n, k int }{{32, 8}, {64, 16}, {128, 32}}

func codecBenchResult(b *testing.B, n, k int) *Compressed {
	b.Helper()
	d := grid.Cube(n)
	tree, err := DefaultPolicy(grid.CubeAt(grid.Point{k, k, k}, k), 16).Tree(d)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Compress(smoothField(d), tree)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkReadCompressed decodes one sub-domain result at three sizes,
// through the reader (files, checkpoints) and from the assembled bytes (the
// wire receive path). Cost and allocation are linear in the stream: about
// one pass over its bytes plus the tree check.
func BenchmarkReadCompressed(b *testing.B) {
	for _, size := range codecBenchSizes {
		c := codecBenchResult(b, size.n, size.k)
		stream, err := c.EncodeBytes()
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []struct {
			suffix string
			decode func() (*Compressed, error)
		}{
			{"", func() (*Compressed, error) { return ReadCompressed(bytes.NewReader(stream)) }},
			{"/bytes", func() (*Compressed, error) { return decodeBytes(stream) }},
		} {
			b.Run(fmt.Sprintf("n%dk%d%s", size.n, size.k, path.suffix), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(stream)))
				for i := 0; i < b.N; i++ {
					if _, err := path.decode(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(c.Tree.CellCount()), "cells")
			})
		}
	}
}

// BenchmarkEncodeBytes is the sending side of the same three results.
func BenchmarkEncodeBytes(b *testing.B) {
	for _, size := range codecBenchSizes {
		c := codecBenchResult(b, size.n, size.k)
		b.Run(fmt.Sprintf("n%dk%d", size.n, size.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.EncodeBytes(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
