package cluster

import (
	"net"
	"sync/atomic"
	"time"
)

// ChaosConn extends the seeded fault-injection machinery of Transport to
// real sockets: a net.Conn wrapper whose Write path suffers the same
// deterministic fault schedule a FaultPlan imposes on the simulated
// fabric. Decisions depend only on (Seed, write index), so a given plan
// replays the identical fault sequence on every run regardless of
// scheduling — the property the wire chaos matrix needs to sweep faults
// across every protocol state reproducibly.
//
// Fault classes map onto a byte stream as:
//
//   - drop: this write and every later one silently vanish while the
//     connection stays open — the classic half-open peer that only
//     deadlines and keepalives can detect.
//   - corrupt: one bit of this write's bytes is flipped (the framed
//     protocol's CRCs must catch it).
//   - delay: this write stalls for plan.Delay before proceeding.
//   - close: the connection is torn down before this write (the peer
//     sees EOF; the writer gets a closed-network error).
//
// Probabilistic faults come from the plan's DropProb / CorruptProb /
// DelayProb exactly as in FaultInjector.Transmit; the plan's legacy
// CrashAtOp doubles as a deterministic close-at-write-N point, and
// explicit one-shot ConnFaultPoints pin a chosen fault to a chosen write
// index for exhaustive state matrices.
type ChaosConn struct {
	net.Conn
	inj    *FaultInjector
	points map[int]ConnFaultKind
	writes atomic.Int64
	dead   atomic.Bool
	closes atomic.Int64
}

// ConnFaultKind selects the fault a ConnFaultPoint injects.
type ConnFaultKind uint8

const (
	// ConnNone injects nothing (padding value).
	ConnNone ConnFaultKind = iota
	// ConnDrop makes the stream silently half-open from this write on.
	ConnDrop
	// ConnCorrupt flips one bit of this write.
	ConnCorrupt
	// ConnDelay stalls this write by the plan's Delay.
	ConnDelay
	// ConnClose tears the connection down before this write.
	ConnClose
)

// ConnFaultPoint schedules one fault at a 1-based write index.
type ConnFaultPoint struct {
	Write int
	Kind  ConnFaultKind
}

// NewChaosConn wraps inner with the fault schedule of plan plus any
// explicit per-write points (points win over seeded rolls at their
// index).
func NewChaosConn(inner net.Conn, plan FaultPlan, points ...ConnFaultPoint) *ChaosConn {
	if plan.Delay <= 0 {
		plan.Delay = time.Millisecond // explicit ConnDelay points need one even when DelayProb == 0
	}
	m := make(map[int]ConnFaultKind, len(points))
	for _, p := range points {
		m[p.Write] = p.Kind
	}
	return &ChaosConn{Conn: inner, inj: NewFaultInjector(plan), points: m}
}

// fate resolves the fault for write i: the explicit point if one exists,
// else the plan's seeded rolls in the same fixed order as Transmit.
func (c *ChaosConn) fate(i int) ConnFaultKind {
	if k, ok := c.points[i]; ok {
		return k
	}
	plan := c.inj.plan
	if plan.CrashAtOp > 0 && i >= plan.CrashAtOp {
		return ConnClose
	}
	seq := uint64(i)
	switch {
	case c.inj.roll(1, 0, 1, seq, 0) < plan.DropProb:
		return ConnDrop
	case c.inj.roll(2, 0, 1, seq, 0) < plan.CorruptProb:
		return ConnCorrupt
	case c.inj.roll(3, 0, 1, seq, 0) < plan.DelayProb:
		return ConnDelay
	}
	return ConnNone
}

// Write implements net.Conn with the fault schedule applied.
func (c *ChaosConn) Write(b []byte) (int, error) {
	i := int(c.writes.Add(1))
	if c.dead.Load() {
		return len(b), nil // half-open: bytes vanish, caller sees success
	}
	switch c.fate(i) {
	case ConnDrop:
		c.dead.Store(true)
		c.inj.drops.Add(1)
		return len(b), nil
	case ConnCorrupt:
		if len(b) == 0 {
			break
		}
		c.inj.corrupts.Add(1)
		bad := make([]byte, len(b))
		copy(bad, b)
		bit := SplitMix64(uint64(c.inj.plan.Seed) ^ uint64(i))
		bad[bit%uint64(len(bad))] ^= 1 << (bit % 8)
		return c.Conn.Write(bad)
	case ConnDelay:
		c.inj.delays.Add(1)
		time.Sleep(c.inj.plan.Delay)
	case ConnClose:
		c.closes.Add(1)
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}
