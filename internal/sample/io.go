package sample

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lowcomm3d/internal/octree"
)

// Binary serialization of compressed results, for checkpointing MASSIF
// runs and for shipping sub-domain results through files or sockets. The
// format mirrors the in-memory layout the paper describes: the 5-int
// octree metadata followed by the flat sample array.
//
//	magic   uint32  "LC3D"
//	version uint32  1
//	n       uint32  grid size (cubic)
//	cells   uint32  octree cell count
//	samples uint64  sample count
//	meta    [5·cells]int32
//	data    [samples]float64
//
// Everything is little-endian. Encoding and decoding cost O(cells +
// samples): one pass over the bytes plus octree.Tree.Validate's linear
// tiling check.

const (
	ioMagic     = 0x4c433344 // "LC3D"
	ioVersion   = 1          // float64 samples
	ioVersion32 = 2          // float32 samples (paper §4: "compressed further using lower precision")

	ioHeaderBytes = 4*4 + 8
)

// sampleWidth is the encoded size of one sample in a stream of version v.
func sampleWidth(v uint32) int {
	if v == ioVersion32 {
		return 4
	}
	return 8
}

// WriteTo serializes the compressed field at full (float64) precision. It
// implements io.WriterTo.
func (c *Compressed) WriteTo(w io.Writer) (int64, error) {
	return c.writeVersion(w, ioVersion)
}

// WriteTo32 serializes with float32 samples — half the bytes at ~1e-7
// relative precision, the "lower precision" variant the paper suggests for
// further compression.
func (c *Compressed) WriteTo32(w io.Writer) (int64, error) {
	return c.writeVersion(w, ioVersion32)
}

func (c *Compressed) writeVersion(w io.Writer, version uint32) (int64, error) {
	stream, err := c.encode(version)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(stream)
	return int64(n), err
}

// encode serializes the field into one buffer of exactly the stream's size.
func (c *Compressed) encode(version uint32) ([]byte, error) {
	if len(c.Samples) != c.Tree.SampleCount() {
		return nil, fmt.Errorf("sample: %d samples stored, tree needs %d", len(c.Samples), c.Tree.SampleCount())
	}
	le := binary.LittleEndian
	meta := c.Tree.EncodeMeta()
	width := sampleWidth(version)
	out := make([]byte, ioHeaderBytes+4*len(meta)+width*len(c.Samples))
	le.PutUint32(out[0:], ioMagic)
	le.PutUint32(out[4:], version)
	le.PutUint32(out[8:], uint32(c.Tree.Dim.Nx))
	le.PutUint32(out[12:], uint32(len(c.Tree.Cells)))
	le.PutUint64(out[16:], uint64(len(c.Samples)))
	p := out[ioHeaderBytes:]
	for i, m := range meta {
		le.PutUint32(p[4*i:], uint32(m))
	}
	p = p[4*len(meta):]
	if version == ioVersion32 {
		for i, v := range c.Samples {
			le.PutUint32(p[4*i:], math.Float32bits(float32(v)))
		}
	} else {
		for i, v := range c.Samples {
			le.PutUint64(p[8*i:], math.Float64bits(v))
		}
	}
	return out, nil
}

// ReadCompressed deserializes a compressed field written by WriteTo,
// validating the octree structure before returning. Allocation is bounded
// by bytes actually read: a forged header fails at EOF at most one
// ioChunk of elements ahead of the data.
func ReadCompressed(r io.Reader) (*Compressed, error) {
	return decode(&readerSource{r: r})
}

// decodeBytes deserializes a compressed field from an encoded stream held
// in memory (the wire receive path, behind Assembler.Compressed): the same
// checks as ReadCompressed, with the metadata and sample arrays sized once
// from the bytes in hand.
func decodeBytes(stream []byte) (*Compressed, error) {
	return decode((*sliceSource)(&stream))
}

// source feeds decode the next n bytes of a stream; the returned slice is
// valid until the following call. held is how many further bytes are known
// to be in memory already — memory the stream has paid for, so the decoder
// may size its arrays by it — and 0 when unknown.
type source interface {
	next(n int) ([]byte, error)
	held() int
}

type sliceSource []byte

func (s *sliceSource) held() int { return len(*s) }

func (s *sliceSource) next(n int) ([]byte, error) {
	b := *s
	if len(b) < n {
		if len(b) == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	*s = b[n:]
	return b[:n], nil
}

type readerSource struct {
	r   io.Reader
	buf []byte
}

func (s *readerSource) held() int { return 0 }

func (s *readerSource) next(n int) ([]byte, error) {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	_, err := io.ReadFull(s.r, s.buf[:n])
	return s.buf[:n], err
}

// ioChunk bounds how far the decoder's allocations may run ahead of the
// bytes it holds while deserializing untrusted streams (64Ki elements:
// 512 KiB of float64 at a time).
const ioChunk = 1 << 16

// boundedCap is the initial capacity for an array a header claims has want
// elements of width encoded bytes each: all of it when the source already
// holds that many bytes, else at most one ioChunk — the cell and sample
// counts are attacker-controlled (2²⁸ cells is a 5.4 GB allocation, a valid
// octree in a 2²⁰ grid can demand 2⁴⁰ samples), and a lying header must
// fail at EOF after one chunk, not after the allocation.
func boundedCap(want, width int, src source) int {
	return min(want, max(ioChunk, src.held()/width))
}

// decode is the one implementation of the stream's header, metadata, tree
// and payload checks, behind both ReadCompressed and decodeBytes.
func decode(src source) (*Compressed, error) {
	le := binary.LittleEndian
	h, err := src.next(16)
	if err != nil {
		return nil, fmt.Errorf("sample: reading header: %w", err)
	}
	if magic := le.Uint32(h[0:]); magic != ioMagic {
		return nil, fmt.Errorf("sample: bad magic %#x", magic)
	}
	version := le.Uint32(h[4:])
	if version != ioVersion && version != ioVersion32 {
		return nil, fmt.Errorf("sample: unsupported version %d", version)
	}
	n, cells := int(le.Uint32(h[8:])), int(le.Uint32(h[12:]))
	if n <= 0 || n > octree.MaxGridSize || cells <= 0 || cells > 1<<28 {
		return nil, fmt.Errorf("sample: implausible header n=%d cells=%d", n, cells)
	}
	if h, err = src.next(8); err != nil {
		return nil, fmt.Errorf("sample: reading sample count: %w", err)
	}
	sampleCount := le.Uint64(h)
	if sampleCount > 1<<40 {
		return nil, fmt.Errorf("sample: implausible sample count %d", sampleCount)
	}

	metaLen := octree.IntsPerCell * cells
	meta := make([]int32, 0, boundedCap(metaLen, 4, src))
	for len(meta) < metaLen {
		raw, err := src.next(4 * min(metaLen-len(meta), ioChunk))
		if err != nil {
			return nil, fmt.Errorf("sample: reading metadata: %w", err)
		}
		for ; len(raw) > 0; raw = raw[4:] {
			meta = append(meta, int32(le.Uint32(raw)))
		}
	}
	tree, err := octree.DecodeMeta(n, meta, int(sampleCount))
	if err != nil {
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("sample: decoded tree invalid: %w", err)
	}
	if tree.SampleCount() != int(sampleCount) {
		return nil, fmt.Errorf("sample: tree needs %d samples, file has %d", tree.SampleCount(), sampleCount)
	}

	width := sampleWidth(version)
	samples := make([]float64, 0, boundedCap(int(sampleCount), width, src))
	for len(samples) < int(sampleCount) {
		raw, err := src.next(width * min(int(sampleCount)-len(samples), ioChunk))
		if err != nil {
			return nil, fmt.Errorf("sample: reading samples: %w", err)
		}
		if version == ioVersion32 {
			for ; len(raw) > 0; raw = raw[4:] {
				samples = append(samples, float64(math.Float32frombits(le.Uint32(raw))))
			}
		} else {
			for ; len(raw) > 0; raw = raw[8:] {
				samples = append(samples, math.Float64frombits(le.Uint64(raw)))
			}
		}
	}
	return &Compressed{Tree: tree, Samples: samples}, nil
}
