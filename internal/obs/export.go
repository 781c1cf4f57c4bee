package obs

import (
	"encoding/json"
	"io"
	"time"
)

// chromeEvent is one entry in the Chrome trace-event JSON format
// (chrome://tracing, Perfetto "legacy JSON"). "X" is a complete event with
// a duration; "C" is a counter sample.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serialises the trace in Chrome trace-event JSON:
// every completed span becomes a "X" (complete) event on its track, and
// every counter and gauge becomes a final "C" (counter) sample so the
// totals show up in the trace viewer. Load the output at chrome://tracing
// or https://ui.perfetto.dev. Nil-safe: a nil trace writes an empty trace.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	var end time.Duration
	for _, s := range t.Spans() {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  s.Name,
			Phase: "X",
			Ts:    float64(s.Start) / float64(time.Microsecond),
			Dur:   float64(s.Dur) / float64(time.Microsecond),
			Pid:   1,
			Tid:   s.Track,
		})
		if s.Start+s.Dur > end {
			end = s.Start + s.Dur
		}
	}
	for _, c := range t.Counters() {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  c.Name,
			Phase: "C",
			Ts:    float64(end) / float64(time.Microsecond),
			Pid:   1,
			Args:  map[string]any{"value": c.Value},
		})
	}
	for _, g := range t.Gauges() {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  g.Name,
			Phase: "C",
			Ts:    float64(end) / float64(time.Microsecond),
			Pid:   1,
			Args:  map[string]any{"value": g.Value},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
