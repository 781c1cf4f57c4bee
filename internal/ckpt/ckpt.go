// Package ckpt is the checkpoint store behind the distributed MASSIF solve:
// versioned, CRC64-checksummed snapshots of per-worker strain state, kept
// as atomically-written files in a directory or in memory.
//
// The paper's k³ decomposition makes sub-domain work restartable and
// relocatable (each sub-domain convolves locally against the full-grid
// kernel, §3), and the recovery state is small: boxes × 6 Voigt components
// × k³ doubles per worker, never the global grid. The solve deposits
// exactly that at every iteration start, so a crashed worker is respawned
// from a deposit and rejoins at the iteration barrier, and an idle worker
// can re-execute a straggler's iteration from it. The store keeps each
// worker's last two deposits: ranks abort at most one iteration apart, so
// between them every rank holds the iteration they all resume from.
//
// Snapshot format (little endian):
//
//	magic   uint32  "LCCK"
//	version uint32  1
//	worker  uint32  owning rank
//	iter    uint32  iteration the strain belongs to (deposited at its start)
//	boxes   uint32  sub-domain count
//	comps   uint32  components per box (grid.NumVoigt for strain)
//	perBox  uint64  values per (box, component) — k³ for cubic sub-domains
//	crc     uint64  CRC64/ECMA over the payload bytes
//	payload boxes·comps·perBox float64
//
// The decoder is hardened like sample.ReadCompressed: every count is
// bounds-checked and the payload buffer grows only as bytes arrive, so a
// forged header cannot trigger a large upfront allocation — a lying stream
// fails at EOF after at most one chunk.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"lowcomm3d/internal/obs"
	"lowcomm3d/internal/telemetry"
)

const (
	magic     = 0x4c43434b // "LCCK"
	version   = 1
	headerLen = 40

	// maxBoxes/maxComps/maxPerBox bound what a header may claim before any
	// allocation happens. The limits are far above real deployments (a
	// 128³ sub-domain is 2²¹ values) but small enough that even a
	// worst-case first chunk stays cheap.
	maxBoxes  = 1 << 20
	maxComps  = 1 << 8
	maxPerBox = 1 << 27

	// chunk is the first payload read while decoding untrusted streams
	// (64Ki float64 = 512 KiB); the buffer at most doubles per read after
	// that, mirroring sample.ReadCompressed.
	chunk = 1 << 16
)

// crcTable is the ECMA polynomial table shared by encode and decode.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Snapshot is one worker's strain state: the deposit made at the start of
// iteration Iter, organized box → component → values.
type Snapshot struct {
	Worker int
	Iter   int
	Strain [][][]float64
}

// validateShape checks the snapshot is rectangular: every box holds the
// same component count and every component the same value count.
func (s *Snapshot) validateShape() (comps, perBox int, err error) {
	if len(s.Strain) == 0 {
		return 0, 0, fmt.Errorf("ckpt: empty snapshot")
	}
	comps = len(s.Strain[0])
	if comps == 0 {
		return 0, 0, fmt.Errorf("ckpt: box 0 has no components")
	}
	perBox = len(s.Strain[0][0])
	for b, box := range s.Strain {
		if len(box) != comps {
			return 0, 0, fmt.Errorf("ckpt: box %d has %d components, box 0 has %d", b, len(box), comps)
		}
		for v, data := range box {
			if len(data) != perBox {
				return 0, 0, fmt.Errorf("ckpt: box %d comp %d has %d values, want %d", b, v, len(data), perBox)
			}
		}
	}
	return comps, perBox, nil
}

// encode returns the snapshot's serialization in one exact-size buffer,
// checksummed in one call.
func (s *Snapshot) encode() ([]byte, error) {
	comps, perBox, err := s.validateShape()
	if err != nil {
		return nil, err
	}
	if s.Worker < 0 || s.Iter < 0 {
		return nil, fmt.Errorf("ckpt: negative worker %d or iter %d", s.Worker, s.Iter)
	}
	le := binary.LittleEndian
	buf := make([]byte, headerLen, headerLen+8*len(s.Strain)*comps*perBox)
	for i, h := range []uint32{magic, version, uint32(s.Worker), uint32(s.Iter), uint32(len(s.Strain)), uint32(comps)} {
		le.PutUint32(buf[4*i:], h)
	}
	le.PutUint64(buf[24:], uint64(perBox))
	for _, box := range s.Strain {
		for _, data := range box {
			for _, v := range data {
				buf = le.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	le.PutUint64(buf[32:], crc64.Checksum(buf[headerLen:], crcTable))
	return buf, nil
}

// WriteSnapshot serializes the snapshot with its payload CRC. It returns
// the bytes written.
func WriteSnapshot(w io.Writer, s *Snapshot) (int64, error) {
	buf, err := s.encode()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot, verifying
// the header bounds and the payload CRC. Allocation is bounded by bytes
// actually received, never by header claims alone.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading header: %w", err)
	}
	le := binary.LittleEndian
	if m := le.Uint32(hdr[0:]); m != magic {
		return nil, fmt.Errorf("ckpt: bad magic %#x", m)
	}
	if v := le.Uint32(hdr[4:]); v != version {
		return nil, fmt.Errorf("ckpt: unsupported version %d", v)
	}
	boxes, comps := int(le.Uint32(hdr[16:])), int(le.Uint32(hdr[20:]))
	if boxes <= 0 || boxes > maxBoxes || comps <= 0 || comps > maxComps {
		return nil, fmt.Errorf("ckpt: implausible header boxes=%d comps=%d", boxes, comps)
	}
	perBox64 := le.Uint64(hdr[24:])
	if perBox64 == 0 || perBox64 > maxPerBox {
		return nil, fmt.Errorf("ckpt: implausible per-box count %d", perBox64)
	}
	perBox := int(perBox64)
	// Growth is bounded by data that arrives: a forged (boxes, comps,
	// perBox) triple can claim petabytes and fails at EOF after one chunk.
	size := 8 * boxes * comps * perBox
	raw := make([]byte, min(size, 8*chunk))
	for read := 0; ; {
		if _, err := io.ReadFull(r, raw[read:]); err != nil {
			return nil, fmt.Errorf("ckpt: reading payload: %w", err)
		}
		if read = len(raw); read == size {
			break
		}
		raw = append(raw, make([]byte, min(size-read, read))...)
	}
	if got, want := crc64.Checksum(raw, crcTable), le.Uint64(hdr[32:]); got != want {
		return nil, fmt.Errorf("ckpt: payload checksum mismatch: got %#x want %#x", got, want)
	}
	vals := make([]float64, size/8)
	for i := range vals {
		vals[i] = math.Float64frombits(le.Uint64(raw[8*i:]))
	}
	s := &Snapshot{Worker: int(le.Uint32(hdr[8:])), Iter: int(le.Uint32(hdr[12:])), Strain: make([][][]float64, boxes)}
	for b := range s.Strain {
		box := make([][]float64, comps)
		for v := range box {
			box[v], vals = vals[:perBox:perBox], vals[perBox:]
		}
		s.Strain[b] = box
	}
	return s, nil
}

// Store holds each worker's last two snapshots, either as files in a
// directory (NewStore) or in memory (NewMemStore). Both save through the
// same codec and checksum. A directory store replaces files atomically:
// every save hard-links the last deposit to the previous-deposit file,
// writes a temp file, fsyncs it and renames it over the last deposit, so
// readers only ever observe complete snapshots — a crash mid-write leaves
// the prior checkpoint intact. A memory store keeps the encoded bytes,
// never the caller's slices, so a deposit is a copy.
type Store struct {
	dir string // "" for a memory store

	mu  sync.Mutex
	mem map[int][2][]byte // memory store: encoded last and previous snapshot by worker

	bytesC *obs.Counter        // ckpt.bytes_written
	savesC *obs.Counter        // ckpt.saves
	fileG  *obs.Gauge          // ckpt.max_file_bytes
	flight *telemetry.Recorder // per-rank checkpoint events, nil OK
}

// NewStore opens (creating if needed) the checkpoint directory. The trace
// records ckpt.bytes_written / ckpt.saves counters and the
// ckpt.max_file_bytes gauge; a nil trace selects a private one, so
// BytesWritten still counts.
func NewStore(dir string, tr *obs.Trace) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating store: %w", err)
	}
	return newStore(dir, tr), nil
}

// NewMemStore returns a store that keeps every deposit in memory, with the
// same counters as NewStore.
func NewMemStore(tr *obs.Trace) *Store { return newStore("", tr) }

func newStore(dir string, tr *obs.Trace) *Store {
	if tr == nil {
		tr = obs.New()
	}
	return &Store{
		dir:    dir,
		mem:    map[int][2][]byte{},
		bytesC: tr.Counter("ckpt.bytes_written"),
		savesC: tr.Counter("ckpt.saves"),
		fileG:  tr.Gauge("ckpt.max_file_bytes"),
	}
}

// SetFlight attaches a flight recorder: every strain deposit is recorded
// as a per-rank checkpoint event, so a postmortem can name a dead rank's
// last checkpoint. A nil recorder disables recording.
func (s *Store) SetFlight(rec *telemetry.Recorder) { s.flight = rec }

// strainPath is the file of worker's last deposit (slot 0) or the one
// before it (slot 1).
func (s *Store) strainPath(worker, slot int) string {
	if slot == 1 {
		return filepath.Join(s.dir, fmt.Sprintf("strain-%04d.prev.ckpt", worker))
	}
	return filepath.Join(s.dir, fmt.Sprintf("strain-%04d.ckpt", worker))
}

// writeAtomic writes data via a temp file in the same directory and
// renames it into place, fsyncing the data first so the rename publishes a
// complete file.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: publishing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// SaveStrain deposits worker's strain for iter atomically; the last
// deposit becomes the previous one and the one before that is dropped.
func (s *Store) SaveStrain(snap *Snapshot) error {
	data, err := snap.encode()
	if err != nil {
		return err
	}
	if s.dir == "" {
		s.mu.Lock()
		s.mem[snap.Worker] = [2][]byte{data, s.mem[snap.Worker][0]}
		s.mu.Unlock()
	} else {
		last, prev := s.strainPath(snap.Worker, 0), s.strainPath(snap.Worker, 1)
		if err := os.Remove(prev); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("ckpt: dropping previous deposit: %w", err)
		}
		if err := os.Link(last, prev); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("ckpt: keeping previous deposit: %w", err)
		}
		if err := s.writeAtomic(last, data); err != nil {
			return err
		}
	}
	n := int64(len(data))
	s.bytesC.Add(n)
	s.savesC.Add(1)
	s.fileG.Max(n)
	s.flight.Checkpoint(snap.Worker, snap.Iter, n)
	return nil
}

// LoadStrain returns worker's last deposit, or (nil, nil) when the worker
// has never checkpointed.
func (s *Store) LoadStrain(worker int) (*Snapshot, error) { return s.load(worker, 0) }

// LoadStrainAt returns worker's deposit for iteration iter when it is one
// of the two the store keeps (the later one if both are), or (nil, nil).
func (s *Store) LoadStrainAt(worker, iter int) (*Snapshot, error) {
	for slot := range 2 {
		snap, err := s.load(worker, slot)
		if err != nil || (snap != nil && snap.Iter == iter) {
			return snap, err
		}
	}
	return nil, nil
}

// load reads worker's last deposit (slot 0) or the one before it (slot 1).
func (s *Store) load(worker, slot int) (*Snapshot, error) {
	var r io.Reader
	if s.dir == "" {
		s.mu.Lock()
		data := s.mem[worker][slot]
		s.mu.Unlock()
		if data == nil {
			return nil, nil
		}
		r = bytes.NewReader(data)
	} else {
		f, err := os.Open(s.strainPath(worker, slot))
		if os.IsNotExist(err) {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("ckpt: opening strain %d: %w", worker, err)
		}
		defer f.Close()
		r = f
	}
	snap, err := ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: worker %d: %w", worker, err)
	}
	if snap.Worker != worker {
		return nil, fmt.Errorf("ckpt: strain file for worker %d claims worker %d", worker, snap.Worker)
	}
	return snap, nil
}

// BytesWritten returns the total bytes this store has saved.
func (s *Store) BytesWritten() int64 { return s.bytesC.Value() }
