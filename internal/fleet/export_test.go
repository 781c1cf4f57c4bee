package fleet

import (
	"os"
	"time"
)

// DeviceStatus is one device's point-in-time view.
type DeviceStatus struct {
	Name     string
	Box      int
	Capacity int64
	Used     int64
	Queued   int
	Inflight int
	Steals   int64         // batches this device stole from siblings
	EWMA     time.Duration // smoothed job duration on this device
	Health   Health        // supervision state (Healthy/Suspect/Dead/Probation)
	Requeued int64         // jobs reclaimed from this device by fault recovery
}

// Status snapshots every device.
func (s *Scheduler) Status() []DeviceStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeviceStatus, len(s.devs))
	for i := range s.devs {
		d := &s.devs[i]
		out[i] = DeviceStatus{
			Name: d.dev.Name, Box: d.box,
			Capacity: d.dev.Capacity, Used: d.dev.Used(),
			Queued: len(d.queue), Inflight: d.inflight,
			Steals: d.steals, EWMA: time.Duration(d.ewmaNanos),
			Health: d.health, Requeued: d.requeued,
		}
	}
	return out
}

// QueueDepth returns device di's current queue length.
func (s *Scheduler) QueueDepth(di int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.devs[di].queue)
}

// Device returns the device the task is placed on (valid once queued).
func (t *Task) Device() int { return t.dev }

// Bytes returns a copy of the trace so far.
func (l *Log) Bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.buf.Bytes()...)
}

// DumpFile writes the trace to path, the postmortem of a failed seeded
// fleet suite.
func (l *Log) DumpFile(path string) error {
	return os.WriteFile(path, l.Bytes(), 0o644)
}
