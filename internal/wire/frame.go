// Package wire is the network front door for the serving engine: a
// framed binary protocol over TCP that streams octree-compressed results
// — the paper's communication format — as CRC-stamped resumable chunks
// (internal/sample's chunk framing), with the failure modes real networks
// impose designed in rather than bolted on. Sessions survive connection
// loss: a client that loses its connection mid-stream reconnects with its
// session token and resumes result streaming from the last acked chunk
// offset; keepalive pings plus idle read deadlines detect half-open
// peers; admission rejections from serve.Engine map to typed status codes
// carrying the engine's retry-after hint; and a bounded unacked window
// applies backpressure to result streaming the same way the engine's
// bounded queue applies it to admission.
package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// ProtoVersion is the handshake protocol version. A Hello carrying any
// other version is refused with StatusBadRequest.
const ProtoVersion = 1

// FrameType tags one frame.
type FrameType uint8

const (
	// FrameHello opens a session (client → server): protocol version plus
	// an optional token to resume a previous session.
	FrameHello FrameType = iota + 1
	// FrameWelcome answers a Hello (server → client) with the session
	// token and whether a presented token was resumed.
	FrameWelcome
	// FrameSubmit submits one convolution job (client → server).
	FrameSubmit
	// FrameChunk carries one compressed-result chunk (server → client).
	FrameChunk
	// FrameAck reports the client's contiguous assembled byte offset —
	// the resume point after a reconnect, and the window release for the
	// server's backpressured stream.
	FrameAck
	// FrameDone marks a job fully streamed and fully acked.
	FrameDone
	// FrameStatus carries a typed failure or rejection for a job (or,
	// with job ID 0, for the session).
	FrameStatus
	// FramePing is a keepalive probe; the peer answers FramePong.
	FramePing
	// FramePong answers a ping.
	FramePong
	// FrameCancel cancels a submitted job (client → server); the job's
	// context is cancelled wherever it is (queued or running).
	FrameCancel
	// FrameResume re-requests streaming of a job after a reconnect,
	// carrying the client's assembled offset.
	FrameResume
	// FrameFleetQuery asks for the engine's per-device fleet status
	// (client → server); the payload is empty.
	FrameFleetQuery
	// FrameFleetStatus answers a fleet query (server → client) with one
	// row per device: name, box, ledger, queue depth, and EWMA latency.
	FrameFleetStatus
	// FrameWeightUpdate sets a tenant's weighted-fair dispatch weight at
	// runtime (client → server); the server echoes the applied update
	// back with the clamped weight, or answers StatusBadRequest.
	FrameWeightUpdate

	frameTypeMax = FrameWeightUpdate
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameSubmit:
		return "submit"
	case FrameChunk:
		return "chunk"
	case FrameAck:
		return "ack"
	case FrameDone:
		return "done"
	case FrameStatus:
		return "status"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameCancel:
		return "cancel"
	case FrameResume:
		return "resume"
	case FrameFleetQuery:
		return "fleet-query"
	case FrameFleetStatus:
		return "fleet-status"
	case FrameWeightUpdate:
		return "weight-update"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// Frame layout (all little-endian):
//
//	off  0  magic      uint32  "LCW1"
//	off  4  type       uint8
//	off  5  version    uint8   frame-format version (1)
//	off  6  reserved   uint16  0
//	off  8  length     uint32  payload bytes
//	off 12  payloadCRC uint32  CRC32-C of the payload
//	off 16  headerCRC  uint32  CRC32-C of bytes [0,16)
//	off 20  payload    [length]byte
//
// The header CRC authenticates the length field before any
// payload-sized work happens, and the payload CRC catches in-flight
// corruption of the body (the chaos matrix's corrupt fault flips one
// bit anywhere in a frame; one of the two CRCs must catch it).
const (
	frameMagic   = 0x4c435731 // "LCW1"
	frameVersion = 1

	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 20

	// MaxFramePayload bounds a single frame's payload (16 MiB): big
	// enough for a Submit carrying a 128³ float64 input, small enough
	// that a hostile length cannot size a catastrophic allocation.
	MaxFramePayload = 16 << 20

	// frameReadChunk is the step in which a payload is read and grown —
	// the decoder never allocates more than one chunk ahead of bytes
	// actually received, so a forged length that passes its CRC still
	// cannot commit memory the stream never delivers (the same
	// bounded-allocation discipline as octree.DecodeMeta and
	// sample.ReadCompressed).
	frameReadChunk = 64 * 1024
)

// ErrFrameCorrupt is wrapped by every decode failure that indicates the
// byte stream itself is damaged (bad magic, CRC mismatch, implausible
// length). A peer seeing it must treat the connection as dead; session
// state survives for a resume.
var ErrFrameCorrupt = errors.New("wire: corrupt frame")

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. The result of one AppendFrame is written to the connection as a
// single Write, so fault injectors see one write per frame.
func AppendFrame(dst []byte, t FrameType, payload []byte) []byte {
	var h [HeaderSize]byte
	le32 := func(off int, v uint32) {
		h[off] = byte(v)
		h[off+1] = byte(v >> 8)
		h[off+2] = byte(v >> 16)
		h[off+3] = byte(v >> 24)
	}
	le32(0, frameMagic)
	h[4] = byte(t)
	h[5] = frameVersion
	le32(8, uint32(len(payload)))
	le32(12, crc32.Checksum(payload, frameCRC))
	le32(16, crc32.Checksum(h[:16], frameCRC))
	dst = append(dst, h[:]...)
	return append(dst, payload...)
}

// EncodeFrame encodes one frame into a fresh buffer.
func EncodeFrame(t FrameType, payload []byte) []byte {
	return AppendFrame(make([]byte, 0, HeaderSize+len(payload)), t, payload)
}

// ReadFrame reads and validates one frame. The header CRC is checked
// before the length is used for anything, the length is bounded by
// MaxFramePayload, and the payload is read in frameReadChunk steps so no
// allocation runs ahead of received bytes. Corruption of any kind
// returns an error wrapping ErrFrameCorrupt; a clean EOF before any
// header byte returns io.EOF.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var h [HeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	le32 := func(off int) uint32 {
		return uint32(h[off]) | uint32(h[off+1])<<8 | uint32(h[off+2])<<16 | uint32(h[off+3])<<24
	}
	if got, want := crc32.Checksum(h[:16], frameCRC), le32(16); got != want {
		return 0, nil, fmt.Errorf("%w: header CRC %#x, want %#x", ErrFrameCorrupt, got, want)
	}
	if m := le32(0); m != frameMagic {
		return 0, nil, fmt.Errorf("%w: magic %#x", ErrFrameCorrupt, m)
	}
	if v := h[5]; v != frameVersion {
		return 0, nil, fmt.Errorf("%w: frame version %d", ErrFrameCorrupt, v)
	}
	t := FrameType(h[4])
	if t < FrameHello || t > frameTypeMax {
		return 0, nil, fmt.Errorf("%w: frame type %d", ErrFrameCorrupt, uint8(t))
	}
	if rsv := uint32(h[6]) | uint32(h[7])<<8; rsv != 0 {
		return 0, nil, fmt.Errorf("%w: reserved bits %#x", ErrFrameCorrupt, rsv)
	}
	length := int(le32(8))
	if length > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrFrameCorrupt, length, MaxFramePayload)
	}
	// Read straight into the payload's spare capacity. It grows only once
	// the bytes received have filled it, to fit at most one more chunk
	// (plus append's amortisation margin, as when the chunks were appended).
	payload := make([]byte, 0, min(length, frameReadChunk))
	for len(payload) < length {
		payload = slices.Grow(payload, min(length-len(payload), frameReadChunk))
		end := min(length, cap(payload))
		if _, err := io.ReadFull(r, payload[len(payload):end]); err != nil {
			return 0, nil, fmt.Errorf("wire: reading frame payload at %d/%d: %w", len(payload), length, err)
		}
		payload = payload[:end]
	}
	if got, want := crc32.Checksum(payload, frameCRC), le32(12); got != want {
		return 0, nil, fmt.Errorf("%w: payload CRC %#x, want %#x", ErrFrameCorrupt, got, want)
	}
	return t, payload, nil
}
