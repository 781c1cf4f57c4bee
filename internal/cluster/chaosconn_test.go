package cluster

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// pipeConn returns a connected in-memory pair.
func pipeConn() (net.Conn, net.Conn) { return net.Pipe() }

// TestChaosConnDeterministicSchedule pins that two ChaosConns with the
// same plan impose the identical fault fates write for write — the
// replayability the wire chaos matrix depends on.
func TestChaosConnDeterministicSchedule(t *testing.T) {
	plan := FaultPlan{Seed: 99, DropProb: 0.2, CorruptProb: 0.2, DelayProb: 0.1, Delay: time.Microsecond}
	fates := func() []ConnFaultKind {
		a, b := pipeConn()
		defer a.Close()
		defer b.Close()
		c := NewChaosConn(a, plan)
		var out []ConnFaultKind
		for i := 1; i <= 64; i++ {
			out = append(out, c.fate(i))
		}
		return out
	}
	f1, f2 := fates(), fates()
	var drops, corrupts int
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("write %d: fate %v then %v", i+1, f1[i], f2[i])
		}
		switch f1[i] {
		case ConnDrop:
			drops++
		case ConnCorrupt:
			corrupts++
		}
	}
	if drops == 0 || corrupts == 0 {
		t.Fatalf("seeded schedule injected drops=%d corrupts=%d over 64 writes; probabilities not firing", drops, corrupts)
	}
}

// TestChaosConnFaultClasses pins each class's stream semantics: corrupt
// flips exactly one bit, drop goes half-open (write claims success, peer
// starves), close surfaces net.ErrClosed and EOFs the peer.
func TestChaosConnFaultClasses(t *testing.T) {
	msg := []byte("framed protocol bytes")

	t.Run("corrupt", func(t *testing.T) {
		a, b := pipeConn()
		defer b.Close()
		c := NewChaosConn(a, FaultPlan{Seed: 7}, ConnFaultPoint{Write: 1, Kind: ConnCorrupt})
		go c.Write(msg)
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(b, got); err != nil {
			t.Fatal(err)
		}
		diff := 0
		for i := range msg {
			diff += bytesBitDiff(msg[i], got[i])
		}
		if diff != 1 {
			t.Fatalf("corrupt flipped %d bits, want exactly 1", diff)
		}
		c.Close()
	})

	t.Run("drop-half-open", func(t *testing.T) {
		a, b := pipeConn()
		defer b.Close()
		c := NewChaosConn(a, FaultPlan{Seed: 7}, ConnFaultPoint{Write: 1, Kind: ConnDrop})
		if n, err := c.Write(msg); err != nil || n != len(msg) {
			t.Fatalf("dropped write returned (%d, %v), want silent success", n, err)
		}
		if n, err := c.Write(msg); err != nil || n != len(msg) {
			t.Fatalf("post-drop write returned (%d, %v), want silent success", n, err)
		}
		b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if n, err := b.Read(make([]byte, 1)); err == nil {
			t.Fatalf("peer read %d bytes through a half-open stream", n)
		}
		c.Close()
	})

	t.Run("close", func(t *testing.T) {
		a, b := pipeConn()
		defer b.Close()
		c := NewChaosConn(a, FaultPlan{Seed: 7}, ConnFaultPoint{Write: 2, Kind: ConnClose})
		go io.Copy(io.Discard, b)
		if _, err := c.Write(msg); err != nil {
			t.Fatalf("write 1: %v", err)
		}
		if _, err := c.Write(msg); err == nil {
			t.Fatal("write 2 succeeded through a closed connection")
		}
		if closes := c.closes.Load(); closes != 1 {
			t.Fatalf("closes = %d, want 1", closes)
		}
	})

	t.Run("clean", func(t *testing.T) {
		a, b := pipeConn()
		defer b.Close()
		c := NewChaosConn(a, FaultPlan{Seed: 7})
		go c.Write(msg)
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("fault-free conn mutated bytes")
		}
		c.Close()
	})
}

func bytesBitDiff(a, b byte) int {
	d, n := a^b, 0
	for d != 0 {
		n += int(d & 1)
		d >>= 1
	}
	return n
}
