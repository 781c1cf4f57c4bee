package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's side only: around each call into a public function, and,
// for what happens inside a call, from what the call returned (conv.Stats,
// serve.Result.Wait, the job's jobtrace timeline). A span built from a
// returned duration and not from two clock readings is marked derived.
type span struct {
	name    string
	op      int // the op this span belongs to: one id per op
	parent  int // index into tracer.spans, -1 for an op's root span
	startNs int64
	durNs   int64
	derived bool
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced half of a traced run.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its index, for use as a parent.
func (t *tracer) add(name string, op, parent int, start time.Time, dur time.Duration, derived bool) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		name: name, op: op, parent: parent,
		startNs: int64(start.Sub(t.epoch)), durNs: int64(dur), derived: derived,
	})
	return len(t.spans) - 1
}

// chain records consecutive derived child spans under parent, the first
// starting at start.
func (t *tracer) chain(op, parent int, start time.Time, names []string, durs []time.Duration) {
	for i, name := range names {
		t.add(name, op, parent, start, durs[i], true)
		start = start.Add(durs[i])
	}
}

// layerTime is one row of the ladder: a span name's total and self time.
type layerTime struct {
	name          string
	calls         int
	totalNs       int64
	selfNs        int64
	selfShareOfOp float64
}

// ladder computes, per span name, total time and self time: a span's
// duration minus the part of it its child spans cover.
func (t *tracer) ladder() []layerTime {
	if t == nil {
		return nil
	}
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.durNs
		}
	}
	byName := map[string]*layerTime{}
	var opNs int64
	for i, s := range t.spans {
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			byName[s.name] = lt
		}
		self := s.durNs - covered[i]
		if self < 0 { // derived children can overhang a measured parent by clock skew
			self = 0
		}
		lt.calls++
		lt.totalNs += s.durNs
		lt.selfNs += self
		if s.parent < 0 {
			opNs += s.durNs
		}
	}
	rows := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		if opNs > 0 {
			lt.selfShareOfOp = float64(lt.selfNs) / float64(opNs)
		}
		rows = append(rows, *lt)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].totalNs != rows[j].totalNs {
			return rows[i].totalNs > rows[j].totalNs
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

func (t *tracer) printLadder(w io.Writer) {
	rows := t.ladder()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\nspans (self = span minus the part its children cover)\n")
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %8s\n", "span", "calls", "total ms", "self ms", "self/op")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %12.3f %12.3f %7.1f%%\n",
			r.name, r.calls, float64(r.totalNs)/1e6, float64(r.selfNs)/1e6, 100*r.selfShareOfOp)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON
// (chrome://tracing, ui.perfetto.dev). Depth becomes the track, so
// children render under their parents.
func (t *tracer) writeChrome(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		depth := 0
		for p := s.parent; p >= 0; p = t.spans[p].parent {
			depth++
		}
		if err := enc.Encode(event{
			Name: s.name, Ph: "X", Ts: float64(s.startNs) / 1e3, Dur: float64(s.durNs) / 1e3,
			Pid: 1, Tid: depth,
			Args: map[string]any{"op": s.op, "parent": s.parent, "derived": s.derived},
		}); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	return w.Flush()
}
