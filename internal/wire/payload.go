package wire

import (
	"fmt"
	"math"
	"time"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/sample"
)

// Message payloads. Every payload is a fixed little-endian layout built
// with the enc/dec cursors below; decoding is defensive throughout
// (length-checked strings, bounded counts), because a payload that passed
// its frame CRC can still be hostile — CRCs authenticate transit, not
// peers.

// helloMsg opens (or resumes) a session.
type helloMsg struct {
	Version uint32
	Token   string // empty: new session; else: resume this session
}

// welcomeMsg answers a hello.
type welcomeMsg struct {
	Token   string
	Resumed bool // the presented token matched a live session
}

// submitMsg is one job: a cubic sub-domain box plus its input field.
type submitMsg struct {
	Job      uint64
	Deadline time.Duration // 0: none; else relative job deadline
	Tenant   string
	Lo       grid.Point // box low corner; the box is Lo+k³
	K        int
	Data     []float64 // k³ input samples, x-fastest
}

// chunkMsg carries one resumable piece of an encoded compressed result.
// Trace echoes the server-minted TraceID so clients can correlate the
// stream with the server's per-job timeline (0: tracing off).
type chunkMsg struct {
	Job   uint64
	Trace uint64
	Chunk sample.Chunk
}

// ackMsg reports the client's contiguous assembled offset for a job.
type ackMsg struct {
	Job    uint64
	Offset int64
}

// doneMsg marks a job fully streamed and acked. Trace echoes the
// server-minted TraceID (0: tracing off).
type doneMsg struct {
	Job   uint64
	Trace uint64
	Total int64
}

// statusMsg is a typed failure/rejection notice. Trace echoes the
// server-minted TraceID for job-scoped statuses (0: session-scoped or
// tracing off).
type statusMsg struct {
	Job        uint64 // 0: session-scoped
	Trace      uint64
	Code       Status
	RetryAfter time.Duration
	Msg        string
}

// resumeMsg re-requests streaming of a job from the client's offset.
type resumeMsg struct {
	Job    uint64
	Offset int64
}

// cancelMsg cancels a job wherever it is.
type cancelMsg struct {
	Job uint64
}

// enc is an append-only little-endian writer.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = append(e.b, byte(v), byte(v>>8)) }
func (e *enc) u32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *enc) u64(v uint64) {
	e.u32(uint32(v))
	e.u32(uint32(v >> 32))
}
func (e *enc) i64(v int64) { e.u64(uint64(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, f := range v {
		e.u64(math.Float64bits(f))
	}
}

// dec is a bounds-checked little-endian reader; the first failure sticks.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated %s at offset %d", what, d.off)
	}
}

func (d *dec) u8(what string) uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16(what string) uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := uint16(d.b[d.off]) | uint16(d.b[d.off+1])<<8
	d.off += 2
	return v
}

func (d *dec) u32(what string) uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail(what)
		return 0
	}
	b := d.b[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *dec) u64(what string) uint64 {
	lo := d.u32(what)
	hi := d.u32(what)
	return uint64(lo) | uint64(hi)<<32
}

func (d *dec) i64(what string) int64 { return int64(d.u64(what)) }

// maxWireString bounds decoded string lengths (tokens, tenants, error
// text) — none of them are legitimately long.
const maxWireString = 4096

func (d *dec) str(what string) string {
	n := int(d.u32(what))
	if d.err != nil {
		return ""
	}
	if n > maxWireString || d.off+n > len(d.b) {
		d.fail(what)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) f64s(what string) []float64 {
	n := int(d.u32(what))
	if d.err != nil {
		return nil
	}
	if d.off+8*n > len(d.b) { // length-checked before sizing the slice
		d.fail(what)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(d.u64(what))
	}
	return out
}

// done finishes a decode: any sticky error, or trailing garbage, fails.
func (d *dec) done(what string) error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes after %s", len(d.b)-d.off, what)
	}
	return nil
}

func (m helloMsg) encode() []byte {
	var e enc
	e.u32(m.Version)
	e.str(m.Token)
	return e.b
}

func decodeHello(p []byte) (helloMsg, error) {
	d := dec{b: p}
	m := helloMsg{Version: d.u32("hello"), Token: d.str("hello")}
	return m, d.done("hello")
}

func (m welcomeMsg) encode() []byte {
	var e enc
	e.str(m.Token)
	if m.Resumed {
		e.u8(1)
	} else {
		e.u8(0)
	}
	return e.b
}

func decodeWelcome(p []byte) (welcomeMsg, error) {
	d := dec{b: p}
	m := welcomeMsg{Token: d.str("welcome")}
	m.Resumed = d.u8("welcome") != 0
	return m, d.done("welcome")
}

func (m submitMsg) encode() []byte {
	e := enc{b: make([]byte, 0, 40+len(m.Tenant)+8*len(m.Data))}
	e.u64(m.Job)
	e.u32(uint32(m.Deadline / time.Millisecond))
	e.str(m.Tenant)
	for _, c := range m.Lo {
		e.i64(int64(c))
	}
	e.u32(uint32(m.K))
	e.f64s(m.Data)
	return e.b
}

func decodeSubmit(p []byte) (submitMsg, error) {
	d := dec{b: p}
	var m submitMsg
	m.Job = d.u64("submit")
	m.Deadline = time.Duration(d.u32("submit")) * time.Millisecond
	m.Tenant = d.str("submit")
	for i := range m.Lo {
		m.Lo[i] = int(d.i64("submit"))
	}
	m.K = int(d.u32("submit"))
	m.Data = d.f64s("submit")
	if err := d.done("submit"); err != nil {
		return submitMsg{}, err
	}
	if m.K < 1 || m.K > 1<<10 {
		return submitMsg{}, fmt.Errorf("wire: submit k=%d out of range", m.K)
	}
	if want := m.K * m.K * m.K; len(m.Data) != want {
		return submitMsg{}, fmt.Errorf("wire: submit carries %d samples for k=%d (want %d)", len(m.Data), m.K, want)
	}
	return m, nil
}

func (m chunkMsg) encode() []byte {
	e := enc{b: make([]byte, 0, 40+len(m.Chunk.Payload))}
	e.u64(m.Job)
	e.u64(m.Trace)
	e.i64(m.Chunk.Offset)
	e.i64(m.Chunk.Total)
	e.u32(m.Chunk.CRC)
	e.b = append(e.b, m.Chunk.Payload...)
	return e.b
}

func decodeChunk(p []byte) (chunkMsg, error) {
	d := dec{b: p}
	var m chunkMsg
	m.Job = d.u64("chunk")
	m.Trace = d.u64("chunk")
	m.Chunk.Offset = d.i64("chunk")
	m.Chunk.Total = d.i64("chunk")
	m.Chunk.CRC = d.u32("chunk")
	if d.err != nil {
		return chunkMsg{}, d.err
	}
	m.Chunk.Payload = p[d.off:] // rest of payload; Assembler CRC-checks it
	if m.Chunk.Offset < 0 || m.Chunk.Total < 0 {
		return chunkMsg{}, fmt.Errorf("wire: chunk with negative offset %d / total %d", m.Chunk.Offset, m.Chunk.Total)
	}
	return m, nil
}

func (m ackMsg) encode() []byte {
	var e enc
	e.u64(m.Job)
	e.i64(m.Offset)
	return e.b
}

func decodeAck(p []byte) (ackMsg, error) {
	d := dec{b: p}
	m := ackMsg{Job: d.u64("ack"), Offset: d.i64("ack")}
	return m, d.done("ack")
}

func (m doneMsg) encode() []byte {
	var e enc
	e.u64(m.Job)
	e.u64(m.Trace)
	e.i64(m.Total)
	return e.b
}

func decodeDone(p []byte) (doneMsg, error) {
	d := dec{b: p}
	m := doneMsg{Job: d.u64("done"), Trace: d.u64("done"), Total: d.i64("done")}
	return m, d.done("done")
}

func (m statusMsg) encode() []byte {
	var e enc
	e.u64(m.Job)
	e.u64(m.Trace)
	e.u16(uint16(m.Code))
	e.u32(uint32(m.RetryAfter / time.Millisecond))
	e.str(m.Msg)
	return e.b
}

func decodeStatus(p []byte) (statusMsg, error) {
	d := dec{b: p}
	var m statusMsg
	m.Job = d.u64("status")
	m.Trace = d.u64("status")
	m.Code = Status(d.u16("status"))
	m.RetryAfter = time.Duration(d.u32("status")) * time.Millisecond
	m.Msg = d.str("status")
	return m, d.done("status")
}

func (m resumeMsg) encode() []byte {
	var e enc
	e.u64(m.Job)
	e.i64(m.Offset)
	return e.b
}

func decodeResume(p []byte) (resumeMsg, error) {
	d := dec{b: p}
	m := resumeMsg{Job: d.u64("resume"), Offset: d.i64("resume")}
	if m.Offset < 0 {
		return resumeMsg{}, fmt.Errorf("wire: resume with negative offset %d", m.Offset)
	}
	return m, d.done("resume")
}

func (m cancelMsg) encode() []byte {
	var e enc
	e.u64(m.Job)
	return e.b
}

func decodeCancel(p []byte) (cancelMsg, error) {
	d := dec{b: p}
	m := cancelMsg{Job: d.u64("cancel")}
	return m, d.done("cancel")
}
