package telemetry

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder
	r.Heartbeat(0, 1)
	r.Collective(0, "all-to-all", 100, time.Millisecond)
	r.Checkpoint(0, 1, 64)
	r.Crash(0, "all-to-all", errors.New("boom"))
	r.Note(0, "x")
	r.Record(Event{})
	if r.Ranks() != 0 {
		t.Fatalf("nil recorder has ranks")
	}
	if r.Summary() != nil {
		t.Fatalf("nil recorder returned a summary")
	}
	var b strings.Builder
	if err := r.WritePostmortem(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no flight recorder") {
		t.Fatalf("nil postmortem = %q", b.String())
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(1, 4)
	for i := 0; i < 10; i++ {
		r.Heartbeat(0, i)
	}
	evs := r.rings[0].events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(evs))
	}
	// Oldest-first: iterations 6,7,8,9 survive.
	for i, ev := range evs {
		if ev.Iter != 6+i {
			t.Fatalf("evs[%d].Iter = %d, want %d (oldest-first after wrap)", i, ev.Iter, 6+i)
		}
	}
	// Timestamps are monotone non-decreasing.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("event times out of order: %v then %v", evs[i-1].At, evs[i].At)
		}
	}
}

func TestRecorderRankClamping(t *testing.T) {
	r := NewRecorder(2, 8)
	r.Heartbeat(-3, 1) // clamps to rank 0
	r.Heartbeat(99, 2) // clamps to rank 1
	if n := len(r.rings[0].events()); n != 1 {
		t.Fatalf("rank 0 retained %d events, want 1", n)
	}
	if n := len(r.rings[1].events()); n != 1 {
		t.Fatalf("rank 1 retained %d events, want 1", n)
	}
}

func TestRecorderSummaryAndPostmortem(t *testing.T) {
	r := NewRecorder(3, 16)
	r.Heartbeat(1, 4)
	r.Collective(1, "all-to-all", 2048, 3*time.Millisecond)
	r.Heartbeat(1, 5)
	r.Checkpoint(1, 5, 512)
	r.Crash(1, "all-to-all", errors.New("injected fault"))
	r.Heartbeat(0, 5)

	sum := r.Summary()
	if len(sum) != 3 {
		t.Fatalf("summary for %d ranks, want 3", len(sum))
	}
	s1 := sum[1]
	if s1.Crash == nil || s1.Crash.Op != "all-to-all" {
		t.Fatalf("rank 1 crash = %+v", s1.Crash)
	}
	if s1.LastHeartbeat == nil || s1.LastHeartbeat.Iter != 5 {
		t.Fatalf("rank 1 last heartbeat = %+v", s1.LastHeartbeat)
	}
	if s1.LastCollective == nil || s1.LastCollective.Bytes != 2048 {
		t.Fatalf("rank 1 last collective = %+v", s1.LastCollective)
	}
	if s1.LastCheckpoint == nil || s1.LastCheckpoint.Iter != 5 {
		t.Fatalf("rank 1 last checkpoint = %+v", s1.LastCheckpoint)
	}
	if sum[2].Crash != nil || sum[2].Events != 0 {
		t.Fatalf("rank 2 should be empty: %+v", sum[2])
	}

	var b strings.Builder
	if err := r.WritePostmortem(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"FLIGHT RECORDER POSTMORTEM — 3 ranks",
		"rank 1: CRASHED in all-to-all",
		"injected fault",
		"last heartbeat:  iter=5",
		"last collective: all-to-all (2048 B)",
		"last checkpoint: iter=5 (512 B)",
		"rank 0: alive",
		"--- rank 2: 0 retained events",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("postmortem missing %q:\n%s", want, out)
		}
	}
}

func TestRecorderDumpFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "post.txt")
	r := NewRecorder(1, 8)
	r.Note(0, "hello")
	if err := r.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "hello") {
		t.Fatalf("dump missing note:\n%s", data)
	}
	// Nil recorder still produces the artifact.
	var nilRec *Recorder
	nilPath := filepath.Join(dir, "nil.txt")
	if err := nilRec.DumpFile(nilPath); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(nilPath); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderConcurrent exercises concurrent per-rank writers plus a
// postmortem reader; meaningful under -race.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(4, 32)
	var wg sync.WaitGroup
	for rank := 0; rank < 4; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Heartbeat(rank, i)
				r.Collective(rank, "all-to-all", int64(i), time.Microsecond)
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = r.WritePostmortem(&b)
			r.Summary()
		}
	}()
	wg.Wait()
	<-done
	for rank := 0; rank < 4; rank++ {
		if n := len(r.rings[rank].events()); n != 32 {
			t.Fatalf("rank %d retained %d events, want full ring of 32", rank, n)
		}
	}
}

// TestRecorderRecordZeroAllocs pins the two events a healthy run records
// — one heartbeat per iteration, one entry per completed collective — at
// zero allocations, past the point where the rings wrap.
func TestRecorderRecordZeroAllocs(t *testing.T) {
	r := NewRecorder(4, 16)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i++
		r.Heartbeat(i&3, i)
		r.Collective(i&3, "all-to-all", int64(i), time.Microsecond)
	}); n != 0 {
		t.Fatalf("Heartbeat + Collective: %v allocs per pair, want 0", n)
	}
}

// BenchmarkRecorderRecord measures the flight-recorder hot path — the cost
// every heartbeat and completed collective pays when a recorder is wired.
func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder(4, DefaultRingSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Heartbeat(i&3, i)
	}
}

func BenchmarkRecorderRecordParallel(b *testing.B) {
	r := NewRecorder(8, DefaultRingSize)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r.Collective(i&7, "all-to-all", int64(i), time.Microsecond)
			i++
		}
	})
}
