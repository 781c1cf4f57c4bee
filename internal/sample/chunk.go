package sample

import (
	"fmt"
	"hash/crc32"
)

// Chunked framing of the compressed binary stream, for shipping a result
// over a lossy wire in resumable pieces. The WriteTo byte stream is the
// canonical encoding; a chunk is a contiguous byte range of it plus a
// CRC, and the ack offset exchanged by the wire protocol is simply the
// count of contiguous bytes the receiver holds — reconnecting at offset o
// resumes the stream at byte o and reassembles to the identical buffer.

// DefaultChunkBytes is the chunk payload size used when callers pass a
// non-positive size: large enough to amortize per-frame overhead, small
// enough that a corrupted chunk retransmits cheaply.
const DefaultChunkBytes = 64 * 1024

// MaxStreamBytes bounds the total encoded stream an Assembler accepts
// (1 GiB). Wire peers are untrusted; a forged total must not size any
// upfront allocation, and growth beyond this bound is refused outright.
const MaxStreamBytes = 1 << 30

// chunkCRC is the chunk checksum table (Castagnoli, hardware-accelerated
// on amd64/arm64).
var chunkCRC = crc32.MakeTable(crc32.Castagnoli)

// Chunk is one contiguous piece of an encoded compressed result.
type Chunk struct {
	Offset  int64  // byte offset of Payload within the encoded stream
	Total   int64  // total encoded stream length, identical across chunks
	CRC     uint32 // CRC32-C of Payload
	Payload []byte
}

// EncodeBytes serializes the compressed field (full precision) into
// memory — the server-side snapshot a chunked, resumable stream is cut
// from.
func (c *Compressed) EncodeBytes() ([]byte, error) { return c.encode(ioVersion) }

// ChunkAt cuts the single CRC-stamped chunk of at most size payload
// bytes starting at byte offset from of the encoded stream. The chunk
// aliases the stream; it is a view, not a copy.
func ChunkAt(stream []byte, from int64, size int) (Chunk, error) {
	total := int64(len(stream))
	if from < 0 || from > total {
		return Chunk{}, fmt.Errorf("sample: chunk offset %d outside stream of %d bytes", from, total)
	}
	if size <= 0 {
		size = DefaultChunkBytes
	}
	end := from + int64(size)
	if end > total {
		end = total
	}
	p := stream[from:end]
	return Chunk{Offset: from, Total: total, CRC: crc32.Checksum(p, chunkCRC), Payload: p}, nil
}

// ChunkStream cuts an encoded stream into CRC-stamped chunks of at most
// size payload bytes (DefaultChunkBytes when size ≤ 0), starting at byte
// offset from — the resume path passes the receiver's ack offset. Chunks
// alias the stream; they are views, not copies.
func ChunkStream(stream []byte, from int64, size int) ([]Chunk, error) {
	if from < 0 || from > int64(len(stream)) {
		return nil, fmt.Errorf("sample: chunk offset %d outside stream of %d bytes", from, len(stream))
	}
	if size <= 0 {
		size = DefaultChunkBytes
	}
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

// Assembler reassembles a chunked stream on the receiving side. It
// accepts chunks strictly in stream order, skipping exact replays (a
// resume may legitimately re-deliver bytes the receiver already holds),
// verifies every chunk's CRC, and never allocates ahead of received
// bytes — the advertised total is validated, not trusted.
type Assembler struct {
	buf   []byte
	total int64 // -1 until the first chunk announces it
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler { return &Assembler{total: -1} }

// Reset discards all assembled bytes (for a full resubmit).
func (a *Assembler) Reset() { a.buf, a.total = a.buf[:0], -1 }

// Offset returns the count of contiguous bytes held — the ack offset to
// report upstream and to resume from after a reconnect.
func (a *Assembler) Offset() int64 { return int64(len(a.buf)) }

// Complete reports whether the full stream has been assembled.
func (a *Assembler) Complete() bool { return a.total >= 0 && int64(len(a.buf)) == a.total }

// Add ingests one chunk. Chunks at an offset already fully held are
// ignored (replay after resume); a gap, a CRC mismatch, a disagreeing
// total, or an implausible total is an error.
func (a *Assembler) Add(ch Chunk) error {
	if ch.Total < 0 || ch.Total > MaxStreamBytes {
		return fmt.Errorf("sample: chunk claims implausible stream of %d bytes", ch.Total)
	}
	if a.total < 0 {
		a.total = ch.Total
	} else if ch.Total != a.total {
		return fmt.Errorf("sample: chunk claims stream of %d bytes, assembling %d", ch.Total, a.total)
	}
	if crc32.Checksum(ch.Payload, chunkCRC) != ch.CRC {
		return fmt.Errorf("sample: chunk at offset %d fails CRC", ch.Offset)
	}
	have := int64(len(a.buf))
	end := ch.Offset + int64(len(ch.Payload))
	if end <= have {
		return nil // pure replay
	}
	if ch.Offset > have {
		return fmt.Errorf("sample: chunk at offset %d leaves a gap after %d assembled bytes", ch.Offset, have)
	}
	if end > a.total {
		return fmt.Errorf("sample: chunk ends at %d beyond stream of %d bytes", end, a.total)
	}
	a.buf = append(a.buf, ch.Payload[have-ch.Offset:]...)
	return nil
}

// Bytes returns the assembled prefix (aliased, not copied).
func (a *Assembler) Bytes() []byte { return a.buf }

// Compressed decodes the fully assembled stream.
func (a *Assembler) Compressed() (*Compressed, error) {
	if !a.Complete() {
		return nil, fmt.Errorf("sample: stream incomplete: %d of %d bytes assembled", len(a.buf), a.total)
	}
	return decodeBytes(a.buf)
}
