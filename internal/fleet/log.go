package fleet

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Log is the scheduler's decision trace: one line per placement, steal,
// batch, completion, cancellation, and rejection, stamped with the
// scheduler clock. Under a SimClock and a single-threaded driver
// (RunSim) the trace is byte-stable — identical seeds produce identical
// bytes, the determinism contract the work-stealing tests pin.
type Log struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// NewLog returns an empty decision trace.
func NewLog() *Log { return &Log{} }

// printf appends one stamped line. now is the scheduler clock reading at
// decision time.
func (l *Log) printf(now time.Time, format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	fmt.Fprintf(&l.buf, "%12.6f ", float64(now.UnixNano())/1e9)
	fmt.Fprintf(&l.buf, format, args...)
	l.buf.WriteByte('\n')
	l.mu.Unlock()
}

// Bytes returns a copy of the trace so far.
func (l *Log) Bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.buf.Bytes()...)
}

// Len returns the trace size in bytes.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Len()
}

// WriteTo writes the trace to w.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := w.Write(l.buf.Bytes())
	return int64(n), err
}

// DumpFile writes the trace to path — the postmortem artifact CI
// uploads when a seeded fleet suite fails.
func (l *Log) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := l.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
