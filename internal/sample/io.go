package sample

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"lowcomm3d/internal/octree"
)

// Binary serialization of compressed results, for checkpointing MASSIF
// runs and for shipping sub-domain results through files or sockets. The
// format mirrors the in-memory layout the paper describes: the 5-int
// octree metadata followed by the flat sample array, each distinct sampled
// point once.
//
//	magic   uint32  "LC3D"
//	version uint32  3 (float64 samples) or 4 (float32)
//	n       uint32  grid size (cubic)
//	cells   uint32  octree cell count
//	slots   uint64  lattice slots, octree.Tree.SlotCount: sizes the last cell
//	samples uint64  stored samples, octree.Tree.SampleCount
//	meta    [5·cells]int32
//	data    [samples]float64 or float32
//
// The metadata's cumulative counts are slot counts, so the cells decode as
// before; the samples are in the tree's storage order (octree.Index), which
// the decoder rebuilds from the cells. Versions 1 and 2 stored every
// cell's closed lattice, shared points once per cell; they are refused.
// Everything is little-endian. Encoding and decoding cost O(cells + slots):
// one pass over the bytes, octree.Tree.Validate's linear tiling check and
// the index build — or, for a tree that is the last one decoded moved on
// the torus, O(cells) checks in their place (lastTree).

const (
	ioMagic     = 0x4c433344 // "LC3D"
	ioVersion   = 3          // float64 samples
	ioVersion32 = 4          // float32 samples (paper §4: "compressed further using lower precision")

	ioHeaderBytes = 4*4 + 2*8
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
	le.PutUint64(out[16:], uint64(c.Tree.SlotCount()))
	le.PutUint64(out[24:], uint64(len(c.Samples)))
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
// ioChunk of elements ahead of the data. The tree's index is built only
// once the samples are in hand, at most eight slots per sample, plus three
// tables of one entry per grid row, n ≤ octree.MaxGridSize.
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
	if version == 1 || version == 2 {
		return nil, fmt.Errorf("sample: stream version %d stores each cell's closed lattice, shared points once per cell; "+
			"this decoder reads versions %d and %d, one sample per point: re-encode the stream", version, ioVersion, ioVersion32)
	}
	if version != ioVersion && version != ioVersion32 {
		return nil, fmt.Errorf("sample: unsupported version %d", version)
	}
	n, cells := int(le.Uint32(h[8:])), int(le.Uint32(h[12:]))
	if n <= 0 || n > octree.MaxGridSize || cells <= 0 || cells > 1<<28 {
		return nil, fmt.Errorf("sample: implausible header n=%d cells=%d", n, cells)
	}
	if h, err = src.next(16); err != nil {
		return nil, fmt.Errorf("sample: reading slot and sample counts: %w", err)
	}
	// A point is a slot of at most eight cells' lattices, one per octant
	// around it, so the index built below holds at most eight entries per
	// sample read.
	slots, sampleCount := le.Uint64(h), le.Uint64(h[8:])
	if sampleCount > 1<<40 || slots < sampleCount || slots > 8*sampleCount || slots > math.MaxInt32 {
		return nil, fmt.Errorf("sample: implausible slot and sample counts %d, %d", slots, sampleCount)
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
	var tree *octree.Tree
	if last := lastTree.Load(); last != nil && last.Dim.Nx == n && last.SlotCount() == int(slots) {
		tree = last.Moved(meta)
	}
	if tree == nil {
		if tree, err = octree.DecodeMeta(n, meta, int(slots)); err != nil {
			return nil, err
		}
		if err := tree.Validate(); err != nil {
			return nil, fmt.Errorf("sample: decoded tree invalid: %w", err)
		}
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
	if tree.SampleCount() != len(samples) {
		return nil, fmt.Errorf("sample: tree stores %d samples, stream has %d", tree.SampleCount(), len(samples))
	}
	lastTree.Store(tree)
	return &Compressed{Tree: tree, Samples: samples}, nil
}

// lastTree is the tree of the last stream decoded. A receiver is sent
// result after result on the trees of one shape, each a translate of the
// one before (conv.PlanSet.NewPolicyLocal), so decode takes the next tree
// as this one moved (octree.Tree.Moved) when the metadata says it is: no
// tree check and no index build. Trees are immutable, so decoders on any
// goroutine may share it.
var lastTree atomic.Pointer[octree.Tree]
