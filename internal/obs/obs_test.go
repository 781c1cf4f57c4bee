package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	if sp != nil {
		t.Fatalf("nil trace produced a span")
	}
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End = %v, want 0", d)
	}
	c := tr.Counter("c")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter holds a value")
	}
	g := tr.Gauge("g")
	g.Max(7)
	if g.Value() != 0 {
		t.Fatalf("nil gauge holds a value")
	}
	if tr.Spans() != nil || tr.Counters() != nil || tr.Gauges() != nil {
		t.Fatalf("nil trace returned non-nil snapshots")
	}
	if tr.CounterValue("c") != 0 {
		t.Fatalf("nil trace returned non-zero values")
	}
	var child *Span
	if child.Start("y") != nil || child.StartTrack("y", 2) != nil {
		t.Fatalf("nil span spawned a child")
	}
}

func TestSpanRecording(t *testing.T) {
	tr := New()
	outer := tr.Start("outer")
	inner := outer.Start("inner")
	time.Sleep(time.Millisecond)
	if d := inner.End(); d <= 0 {
		t.Fatalf("inner duration %v, want > 0", d)
	}
	outer.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Ended in inner→outer order.
	if spans[0].Name != "inner" || spans[1].Name != "outer" {
		t.Fatalf("span order %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[1].Dur < spans[0].Dur {
		t.Fatalf("outer (%v) shorter than inner (%v)", spans[1].Dur, spans[0].Dur)
	}
}

func TestSpanTracks(t *testing.T) {
	tr := New()
	tr.StartTrack("w0", 1).End()
	parent := tr.StartTrack("p", 3)
	parent.Start("child").End()
	parent.End()
	byName := map[string]int{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s.Track
	}
	if byName["w0"] != 1 || byName["p"] != 3 || byName["child"] != 3 {
		t.Fatalf("tracks = %v", byName)
	}
}

func TestCountersAndGauges(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := tr.Counter("bytes")
			for j := 0; j < 100; j++ {
				c.Add(3)
			}
			tr.Gauge("peak").Max(int64(i * 10))
		}(i)
	}
	wg.Wait()
	if got := tr.CounterValue("bytes"); got != 8*100*3 {
		t.Fatalf("counter = %d, want %d", got, 8*100*3)
	}
	if got := tr.Gauge("peak").Value(); got != 70 {
		t.Fatalf("gauge = %d, want 70", got)
	}
	// Registration order is preserved.
	tr.Counter("second")
	cs := tr.Counters()
	if len(cs) != 2 || cs[0].Name != "bytes" || cs[1].Name != "second" {
		t.Fatalf("counter order = %+v", cs)
	}
}

func TestGaugeNegativeAndZero(t *testing.T) {
	tr := New()
	g := tr.Gauge("g")
	g.Max(-5)
	if g.Value() != -5 {
		t.Fatalf("gauge = %d, want -5 (first observation wins even if negative)", g.Value())
	}
	g.Max(-9)
	if g.Value() != -5 {
		t.Fatalf("gauge = %d, want -5", g.Value())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New()
	s := tr.Start("stageA")
	time.Sleep(time.Millisecond)
	s.End()
	tr.Counter("bytes").Add(1024)
	tr.Gauge("peak").Max(2048)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3 (1 span + 1 counter + 1 gauge)", len(decoded.TraceEvents))
	}
	var sawSpan, sawCounter bool
	for _, ev := range decoded.TraceEvents {
		switch ev["ph"] {
		case "X":
			sawSpan = true
			if ev["name"] != "stageA" {
				t.Fatalf("span name = %v", ev["name"])
			}
			if ev["dur"].(float64) <= 0 {
				t.Fatalf("span dur = %v, want > 0", ev["dur"])
			}
		case "C":
			sawCounter = true
			args := ev["args"].(map[string]any)
			if _, ok := args["value"]; !ok {
				t.Fatalf("counter event missing args.value: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if !sawSpan || !sawCounter {
		t.Fatalf("missing event kinds: span=%v counter=%v", sawSpan, sawCounter)
	}
}

func TestWriteChromeTraceNil(t *testing.T) {
	var tr *Trace
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("nil-trace output is not valid JSON: %v", err)
	}
}

func TestFFTFlops(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{0, 0}, {1, 0},
		{2, 5 * 2 * 1},
		{8, 5 * 8 * 3},
		{1024, 5 * 1024 * 10},
		{7, 5 * 7 * 3}, // non-pow2 rounds log2 up
	}
	for _, c := range cases {
		if got := FFTFlops(c.n); got != c.want {
			t.Errorf("FFTFlops(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
