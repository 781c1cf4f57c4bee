package ckpt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lowcomm3d/internal/grid"
	"lowcomm3d/internal/obs"
)

// readMem records (TotalAlloc, Mallocs) so tests can bound how much a
// decoder call allocated, independent of what the GC has since reclaimed.
func readMem(m *[2]uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m[0], m[1] = ms.TotalAlloc, ms.Mallocs
}

func testSnapshot(worker, iter, boxes, perBox int) *Snapshot {
	s := &Snapshot{Worker: worker, Iter: iter, Strain: make([][][]float64, boxes)}
	for b := range s.Strain {
		s.Strain[b] = make([][]float64, grid.NumVoigt)
		for v := range s.Strain[b] {
			data := make([]float64, perBox)
			for i := range data {
				data[i] = float64(b)*100 + float64(v)*10 + float64(i)*0.25
			}
			s.Strain[b][v] = data
		}
	}
	return s
}

// writeSnapshotOracle is the reference encoder: per-value CRC updates and
// reflective binary.Write through a bufio.Writer. WriteSnapshot must
// produce its bytes exactly.
func writeSnapshotOracle(w io.Writer, s *Snapshot) (int64, error) {
	comps, perBox, err := s.validateShape()
	if err != nil {
		return 0, err
	}
	crc := crc64.New(crcTable)
	var scratch [8]byte
	for _, box := range s.Strain {
		for _, data := range box {
			for _, v := range data {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
				crc.Write(scratch[:])
			}
		}
	}
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	for _, h := range []uint32{magic, version, uint32(s.Worker), uint32(s.Iter), uint32(len(s.Strain)), uint32(comps)} {
		if err := write(h); err != nil {
			return n, err
		}
	}
	if err := write(uint64(perBox)); err != nil {
		return n, err
	}
	if err := write(crc.Sum64()); err != nil {
		return n, err
	}
	for _, box := range s.Strain {
		for _, data := range box {
			if err := write(data); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// TestWriteSnapshotMatchesOracle holds the one-buffer encoder byte-identical
// to the reference encoder, special values included, and the decoder to an
// exact inverse across the first-chunk boundary.
func TestWriteSnapshotMatchesOracle(t *testing.T) {
	special := testSnapshot(9, 1, 2, 5)
	copy(special.Strain[1][3], []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64})
	twoComps := &Snapshot{Worker: 1, Iter: 2, Strain: [][][]float64{{{1, 2, 3}, {4, 5, 6}}}}
	for _, snap := range []*Snapshot{
		testSnapshot(0, 0, 1, 1),
		testSnapshot(3, 17, 4, 64),
		testSnapshot(2, 5, 3, 8),
		testSnapshot(1, 9, 2, chunk+3),
		special,
		twoComps,
	} {
		var got, want bytes.Buffer
		n, err := WriteSnapshot(&got, snap)
		if err != nil {
			t.Fatal(err)
		}
		wn, err := writeSnapshotOracle(&want, snap)
		if err != nil {
			t.Fatal(err)
		}
		if n != wn || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("worker %d: %d bytes, oracle %d; streams equal: %v", snap.Worker, n, wn, bytes.Equal(got.Bytes(), want.Bytes()))
		}
		back, err := ReadSnapshot(&got)
		if err != nil {
			t.Fatal(err)
		}
		for b := range snap.Strain {
			for v := range snap.Strain[b] {
				for i, x := range snap.Strain[b][v] {
					if math.Float64bits(back.Strain[b][v][i]) != math.Float64bits(x) {
						t.Fatalf("worker %d strain[%d][%d][%d] = %v, want %v", snap.Worker, b, v, i, back.Strain[b][v][i], x)
					}
				}
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot(3, 17, 4, 64)
	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, want)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Worker != want.Worker || got.Iter != want.Iter {
		t.Errorf("header (%d,%d), want (%d,%d)", got.Worker, got.Iter, want.Worker, want.Iter)
	}
	if len(got.Strain) != len(want.Strain) {
		t.Fatalf("boxes %d, want %d", len(got.Strain), len(want.Strain))
	}
	for b := range want.Strain {
		for v := range want.Strain[b] {
			for i, x := range want.Strain[b][v] {
				if got.Strain[b][v][i] != x {
					t.Fatalf("strain[%d][%d][%d] = %g, want %g", b, v, i, got.Strain[b][v][i], x)
				}
			}
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, testSnapshot(0, 5, 2, 27)); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	t.Run("flipped payload bit", func(t *testing.T) {
		bad := bytes.Clone(clean)
		bad[len(bad)-3] ^= 0x40
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corrupted payload accepted (err=%v)", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := ReadSnapshot(bytes.NewReader(clean[:len(clean)-5])); err == nil {
			t.Fatal("truncated stream accepted")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := bytes.Clone(clean)
		bad[0] ^= 0xff
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := bytes.Clone(clean)
		binary.LittleEndian.PutUint32(bad[4:], 99)
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("unknown version accepted")
		}
	})
}

// TestForgedHeaderNoLargeAllocation pins the bounded-decoder contract: a
// 40-byte stream claiming a maximal payload must fail fast at EOF without
// allocating anything near the claimed size.
func TestForgedHeaderNoLargeAllocation(t *testing.T) {
	var buf bytes.Buffer
	for _, h := range []uint32{magic, version, 0, 0, maxBoxes, maxComps} {
		binary.Write(&buf, binary.LittleEndian, h)
	}
	binary.Write(&buf, binary.LittleEndian, uint64(maxPerBox)) // claims ~2⁵⁵ values
	binary.Write(&buf, binary.LittleEndian, uint64(0))         // bogus CRC
	var before, after [2]uint64
	readMem(&before)
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("forged header accepted")
	}
	readMem(&after)
	if grew := after[0] - before[0]; grew > 64<<20 {
		t.Errorf("forged header allocated %d bytes; decoder must stay chunk-bounded", grew)
	}
	// Out-of-range counts must be rejected before any payload read.
	var buf2 bytes.Buffer
	for _, h := range []uint32{magic, version, 0, 0, 1 << 30, 1} {
		binary.Write(&buf2, binary.LittleEndian, h)
	}
	binary.Write(&buf2, binary.LittleEndian, uint64(1))
	binary.Write(&buf2, binary.LittleEndian, uint64(0))
	if _, err := ReadSnapshot(bytes.NewReader(buf2.Bytes())); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("oversized box count not rejected by bounds check (err=%v)", err)
	}
}

func TestStoreSaveLoadStrain(t *testing.T) {
	tr := obs.New()
	st, err := NewStore(t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := st.LoadStrain(7); err != nil || snap != nil {
		t.Fatalf("missing checkpoint: got (%v, %v), want (nil, nil)", snap, err)
	}
	first := testSnapshot(7, 2, 3, 8)
	if err := st.SaveStrain(first); err != nil {
		t.Fatal(err)
	}
	// Replacement is atomic: the second save supersedes the first entirely.
	second := testSnapshot(7, 9, 3, 8)
	second.Strain[1][2][3] = -42
	if err := st.SaveStrain(second); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadStrain(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 9 || got.Strain[1][2][3] != -42 {
		t.Errorf("load after replace: iter=%d strain=%g, want 9, -42", got.Iter, got.Strain[1][2][3])
	}
	if st.BytesWritten() == 0 || tr.CounterValue("ckpt.saves") != 2 {
		t.Errorf("obs counters not recorded: bytes=%d saves=%d", st.BytesWritten(), tr.CounterValue("ckpt.saves"))
	}
	// No temp-file litter after successful publishes.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// TestMemStoreSaveLoadStrain: the memory store saves through the same codec
// as the directory store, keeps a copy rather than the caller's slices, and
// counts its bytes with or without a trace.
func TestMemStoreSaveLoadStrain(t *testing.T) {
	if _, err := NewStore("", nil); err == nil {
		t.Fatal("NewStore accepted an empty directory")
	}
	st := NewMemStore(nil)
	if st.Dir() != "" {
		t.Errorf("memory store Dir = %q, want empty", st.Dir())
	}
	if snap, err := st.LoadStrain(3); err != nil || snap != nil {
		t.Fatalf("missing checkpoint: got (%v, %v), want (nil, nil)", snap, err)
	}
	live := testSnapshot(3, 4, 2, 8)
	if err := st.SaveStrain(live); err != nil {
		t.Fatal(err)
	}
	live.Strain[0][1][2] = -7 // the solver keeps iterating on its live strain
	got, err := st.LoadStrain(3)
	if err != nil {
		t.Fatal(err)
	}
	if want := testSnapshot(3, 4, 2, 8).Strain[0][1][2]; got.Iter != 4 || got.Strain[0][1][2] != want {
		t.Errorf("load: iter=%d strain=%g, want 4, %g (the deposit must not alias live strain)", got.Iter, got.Strain[0][1][2], want)
	}
	var enc bytes.Buffer
	n, err := WriteSnapshot(&enc, live)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesWritten() != n {
		t.Errorf("BytesWritten = %d with a nil trace, want %d", st.BytesWritten(), n)
	}
	if err := st.SaveStrain(&Snapshot{Worker: 3}); err == nil {
		t.Error("empty snapshot saved")
	}
}

// TestStoreKeepsPreviousDeposit: both stores answer LoadStrainAt for the
// last two deposits of a worker and nothing older, and a repeated
// iteration resolves to its later deposit.
func TestStoreKeepsPreviousDeposit(t *testing.T) {
	dir, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{NewMemStore(nil), dir} {
		if snap, err := st.LoadStrainAt(5, 0); err != nil || snap != nil {
			t.Fatalf("dir %q: no deposit yet: got (%v, %v), want (nil, nil)", st.Dir(), snap, err)
		}
		for _, d := range []struct{ it, mark int }{{2, 20}, {3, 30}, {4, 40}, {3, -1}} {
			snap := testSnapshot(5, d.it, 2, 8)
			snap.Strain[1][1][1] = float64(d.mark)
			if err := st.SaveStrain(snap); err != nil {
				t.Fatal(err)
			}
		}
		// Deposits 4 then 3 (the second 3) are kept; 2 and the first 3 are gone.
		for it, want := range map[int]float64{4: 40, 3: -1} {
			snap, err := st.LoadStrainAt(5, it)
			if err != nil || snap == nil || snap.Iter != it || snap.Strain[1][1][1] != want {
				t.Errorf("dir %q: LoadStrainAt(5, %d) = (%v, %v), want iteration %d with marker %g", st.Dir(), it, snap, err, it, want)
			}
		}
		if snap, err := st.LoadStrainAt(5, 2); err != nil || snap != nil {
			t.Errorf("dir %q: a third-newest deposit survived: (%v, %v)", st.Dir(), snap, err)
		}
		if last, err := st.LoadStrain(5); err != nil || last.Iter != 3 {
			t.Errorf("dir %q: LoadStrain = (%v, %v), want the last deposit, iteration 3", st.Dir(), last, err)
		}
	}
}

// TestMemStoreConcurrentSaveLoad: ranks deposit while a helper loads a
// peer's deposit, as a distributed solve does; run under -race.
func TestMemStoreConcurrentSaveLoad(t *testing.T) {
	st := NewMemStore(obs.New())
	const p, iters = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if err := st.SaveStrain(testSnapshot(w, it, 2, 8)); err != nil {
					t.Error(err)
					return
				}
				if snap, err := st.LoadStrain((w + 1) % p); err != nil || (snap != nil && snap.Worker != (w+1)%p) {
					t.Errorf("load of peer %d: %v, %v", (w+1)%p, snap, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < p; w++ {
		if snap, err := st.LoadStrain(w); err != nil || snap.Iter != iters-1 {
			t.Fatalf("worker %d final deposit: %v, %v", w, snap, err)
		}
	}
}

func TestStoreRejectsWorkerMismatch(t *testing.T) {
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveStrain(testSnapshot(1, 0, 2, 8)); err != nil {
		t.Fatal(err)
	}
	// Simulate a misrouted file: worker 2's slot holding worker 1's data.
	if err := os.Rename(st.strainPath(1, 0), st.strainPath(2, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadStrain(2); err == nil {
		t.Fatal("worker-mismatched checkpoint accepted")
	}
}

// TestCrashMidWriteKeepsPriorCheckpoint simulates the crash the atomic
// discipline exists for: a partial write that never reaches the rename
// must leave the previous deposit untouched and loadable.
func TestCrashMidWriteKeepsPriorCheckpoint(t *testing.T) {
	st, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveStrain(testSnapshot(0, 4, 2, 8)); err != nil {
		t.Fatal(err)
	}
	// A crashed writer leaves only a torn temp file behind.
	torn := filepath.Join(st.Dir(), "strain-0000.ckpt.tmp-dead")
	if err := os.WriteFile(torn, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadStrain(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 4 {
		t.Errorf("prior checkpoint iter = %d, want 4", got.Iter)
	}
}
