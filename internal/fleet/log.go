package fleet

import (
	"bytes"
	"fmt"
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

// Len returns the trace size in bytes.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Len()
}
