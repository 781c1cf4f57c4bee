package sample

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"lowcomm3d/internal/grid"
)

func chunkTestCompressed(t *testing.T) *Compressed {
	t.Helper()
	tree, err := Uniform{Rate: 2, CellSize: 8}.Tree(grid.Cube(16))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompressed(tree)
	rng := rand.New(rand.NewSource(5))
	for i := range c.Samples {
		c.Samples[i] = rng.NormFloat64()
	}
	return c
}

// chunkStream cuts stream into the chunks ChunkAt returns from byte
// offset from on, as a sender walks the stream.
func chunkStream(stream []byte, from int64, size int) ([]Chunk, error) {
	var out []Chunk
	for off := from; off < int64(len(stream)); off += int64(size) {
		ch, err := ChunkAt(stream, off, size)
		if err != nil {
			return nil, err
		}
		out = append(out, ch)
	}
	return out, nil
}

// TestChunkRoundTrip pins the chunked wire path end to end: encode, cut
// into chunks, reassemble, decode — byte- and sample-identical.
func TestChunkRoundTrip(t *testing.T) {
	c := chunkTestCompressed(t)
	stream, err := c.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7, 64, 1 << 20} {
		chunks, err := chunkStream(stream, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAssembler()
		for _, ch := range chunks {
			if err := a.Add(ch); err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
		}
		if !a.Complete() {
			t.Fatalf("size %d: %d of %d bytes assembled", size, a.Offset(), len(stream))
		}
		got, err := a.Compressed()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.buf, stream) {
			t.Fatalf("size %d: assembled bytes differ from encoded stream", size)
		}
		for i := range c.Samples {
			if got.Samples[i] != c.Samples[i] {
				t.Fatalf("size %d: sample %d = %g, want %g", size, i, got.Samples[i], c.Samples[i])
			}
		}
	}
}

// TestChunkResumeFromOffset pins the reconnect path: assemble a prefix,
// "lose the connection", resume streaming from the ack offset (including
// a replayed overlap), and still reassemble the identical stream.
func TestChunkResumeFromOffset(t *testing.T) {
	c := chunkTestCompressed(t)
	stream, err := c.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	first, err := chunkStream(stream, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssembler()
	for _, ch := range first[:3] { // deliver a partial prefix, then drop
		if err := a.Add(ch); err != nil {
			t.Fatal(err)
		}
	}
	ack := a.Offset()
	if ack != 3*128 {
		t.Fatalf("ack offset = %d, want %d", ack, 3*128)
	}
	// Server resumes from one chunk before the ack (replay tolerated).
	resumed, err := chunkStream(stream, ack-128, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range resumed {
		if err := a.Add(ch); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Complete() || !bytes.Equal(a.buf, stream) {
		t.Fatal("resumed assembly differs from the encoded stream")
	}
}

// TestAssemblerRejectsFaults pins the assembler's fault handling: CRC
// mismatch (one flipped payload bit), gaps, disagreeing totals, and
// forged totals are refused without allocating ahead of received data.
func TestAssemblerRejectsFaults(t *testing.T) {
	c := chunkTestCompressed(t)
	stream, err := c.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunkStream(stream, 0, 256)
	if err != nil {
		t.Fatal(err)
	}

	a := NewAssembler()
	bad := chunks[0]
	bad.Payload = bytes.Clone(bad.Payload)
	bad.Payload[17] ^= 0x04 // one bit, mid-chunk
	if err := a.Add(bad); err == nil {
		t.Fatal("bit-flipped chunk accepted")
	}
	if a.Offset() != 0 {
		t.Fatalf("rejected chunk advanced offset to %d", a.Offset())
	}

	if err := a.Add(chunks[1]); err == nil { // chunk 0 never arrived
		t.Fatal("gap accepted")
	}
	if err := a.Add(chunks[0]); err != nil {
		t.Fatal(err)
	}
	lying := chunks[1]
	lying.Total += 8
	if err := a.Add(lying); err == nil {
		t.Fatal("disagreeing total accepted")
	}

	forged := Chunk{Offset: 0, Total: MaxStreamBytes + 1}
	if err := NewAssembler().Add(forged); err == nil {
		t.Fatal("implausible total accepted")
	}
}

// TestReadCompressedTruncatedStream pins decoder behavior on the partial
// frames and premature EOFs wire faults produce: for every truncation
// point of a genuine stream, ReadCompressed returns an error — never a
// panic, never a silently short result.
func TestReadCompressedTruncatedStream(t *testing.T) {
	c := chunkTestCompressed(t)
	stream, err := c.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(stream); cut++ {
		if _, err := ReadCompressed(bytes.NewReader(stream[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d decoded without error", cut, len(stream))
		}
	}
	if _, err := ReadCompressed(bytes.NewReader(stream)); err != nil {
		t.Fatalf("intact stream failed: %v", err)
	}
}

// TestReadCompressedCorruptedStream flips one bit at every byte of a
// genuine stream and decodes. Flips in the structural part (header,
// octree metadata) must surface as errors or survive tree validation;
// flips anywhere must never panic or hang. Flips confined to the sample
// payload decode cleanly by design — payload integrity on the wire is the
// chunk CRC's job (TestAssemblerRejectsFaults), not the codec's.
func TestReadCompressedCorruptedStream(t *testing.T) {
	c := chunkTestCompressed(t)
	stream, err := c.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	payloadStart := len(stream) - 8*len(c.Samples)
	for i := 0; i < len(stream); i++ {
		mut := bytes.Clone(stream)
		mut[i] ^= 1 << (i % 8)
		got, err := ReadCompressed(bytes.NewReader(mut))
		if err != nil {
			continue // detected — the desired outcome for structural flips
		}
		if i >= payloadStart {
			continue // payload flip: decodes to different samples, CRC layer catches it
		}
		// A structural flip that still decodes must yield a structurally
		// valid tree over the same grid — e.g. a benign flip inside an
		// unused metadata bit pattern. Anything else is codec laxness.
		if got.Tree.Dim != c.Tree.Dim {
			t.Fatalf("flip at byte %d decoded to grid %v", i, got.Tree.Dim)
		}
		if err := got.Tree.Validate(); err != nil {
			t.Fatalf("flip at byte %d decoded to invalid tree: %v", i, err)
		}
	}
}

// TestReadCompressedPrematureEOF pins behavior on a reader that dies
// mid-stream (the io.Reader face of a dropped connection): the error
// must propagate, wrapping the reader's failure rather than inventing a
// result.
func TestReadCompressedPrematureEOF(t *testing.T) {
	c := chunkTestCompressed(t)
	stream, err := c.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("connection reset mid-stream")
	r := io.MultiReader(bytes.NewReader(stream[:len(stream)/2]), failReader{err: boom})
	if _, err := ReadCompressed(r); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

type failReader struct{ err error }

func (f failReader) Read([]byte) (int, error) { return 0, f.err }
