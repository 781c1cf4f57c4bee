package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lowcomm3d/internal/obs/jobtrace"
)

// measured is what one window produced.
type measured struct {
	attempted int
	failed    int
	firstErr  error

	// One entry per completed op, in completion order.
	normMs []float64 // latency on the nominal machine
	rawMs  []float64 // latency as the clock read it
	traced []bool    // ran on the traced instance (traced runs only)
	infos  []opInfo

	cpuNormMs   float64   // Σ process CPU of completed ops, on the nominal machine
	normSec     float64   // closed: Σ normalised op time; open: Σ normalised window time
	withinLimit int       // open: completions no later than openLimitMs
	lateMs      []float64 // open: send time − due time, raw
}

func (m *measured) fail(err error) {
	m.failed++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// record books one completed op that took rawNs next to a yardstick of
// refNs, and returns its latency on the nominal machine in ms.
func (m *measured) record(rawNs, refNs float64, traced bool, info opInfo) float64 {
	norm := normalise(rawNs, refNs) / 1e6
	m.rawMs = append(m.rawMs, rawNs/1e6)
	m.normMs = append(m.normMs, norm)
	m.traced = append(m.traced, traced)
	m.infos = append(m.infos, info)
	return norm
}

// half is one of the instances a loop alternates between: a plain run has
// one; a traced run has an untraced and a traced one, taking turns, so that
// bench.trace_overhead_ratio compares ops that ran seconds apart.
type half struct {
	inst instance
	tr   *tracer             // nil on the untraced half
	jobs *jobtrace.Collector // nil on the untraced half
}

// closedLoop runs ops one at a time for the given time: yardstick, op,
// yardstick, op, … Each op is normalised by the mean of the yardstick
// medians on its two sides. The yardstick's own time and CPU are in no
// figure: op time is call to return, CPU is read at the same two points.
func closedLoop(y *yardstick, w workload, halves []half, seconds float64) *measured {
	m := &measured{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	before := y.median(w.refEach)
	for i := 0; time.Now().Before(deadline); i++ {
		h := halves[i%len(halves)]
		c0 := processCPUNs()
		t0 := time.Now()
		info, err := h.inst.op(i / len(halves))
		d := time.Since(t0)
		cpu := processCPUNs() - c0
		after := y.median(w.refEach)
		ref := adjacentRef(before, after)
		before = after

		m.attempted++
		if err != nil {
			m.fail(err)
			continue
		}
		m.normSec += m.record(float64(d), ref, h.tr != nil, info) / 1e3
		m.cpuNormMs += normalise(float64(cpu), ref) / 1e6
		emitSpans(h, w, i, t0, t0, d, info)
	}
	return m
}

// submitter is the open-loop side of an instance.
type submitter interface {
	submit(a arrival) (opInfo, error)
}

// openLoop offers seeded arrivals for the given time, in windows of one
// second on the nominal machine; a window is drained before the next starts
// (a traced run alternates its halves by window).
//
// An open loop cannot put a yardstick kernel next to each op the way a
// closed loop does, and a burst at a window's edge says little about the
// second between the edges: on the host this was written on, the yardstick
// switches between a fast and a slow state every few hundred milliseconds.
// So the generator runs a kernel whenever nothing is in flight and the next
// request is not due for long enough. The kernels then lie a few
// milliseconds from every op, disturb none (none is running), and keep the
// generator's vCPU awake, which also makes it punctual. An op is normalised
// by the kernels nearest to its due time and to its completion.
//
// The schedule is laid out on the nominal machine and stretched by the
// median kernel so far, so a slower host is offered the same utilisation,
// not a higher one: otherwise drift changes queueing, which no
// normalisation after the fact can undo. Latency is due time → completion:
// a stalled generator delays the requests behind it, and that wait counts.
// The generator's own CPU (its kernels, its waiting) is read from its
// thread's clock and is in no figure.
func openLoop(y *yardstick, w workload, halves []half, seconds float64, rng *rand.Rand, sched openSchedule) *measured {
	m := &measured{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var kernelStart []time.Time // every kernel of this loop, in order
	var kernelNs []float64
	runKernel := func() {
		kernelStart = append(kernelStart, time.Now())
		kernelNs = append(kernelNs, y.once())
	}
	for i := 0; i < 3*refNear; i++ { // enough kernels for the first window's stretch
		runKernel()
	}

	type done struct {
		due, sent, end time.Time
		info           opInfo
		err            error
	}
	var inFlight atomic.Int32
	for win := 0; ; win++ {
		typical := median(kernelNs)
		stretch := typical / (RefNominalMs * 1e6)
		length := time.Duration(float64(sched.windowNs) * stretch)
		if time.Now().Add(length).After(deadline) {
			break
		}
		room := time.Duration(2 * typical) // a kernel fits in this with time to spare
		h := halves[win%len(halves)]
		sub := h.inst.(submitter)
		arrivals := arrivalWindow(rng, sched.perWindow, sched.windowNs, len(openTenants), servedBoxes)
		results := make([]done, len(arrivals))
		firstKernel := len(kernelNs)

		var wg sync.WaitGroup
		cpu0, own0 := processCPUNs(), y.cpuNs
		start := time.Now()
		waitUntil := func(due time.Time) {
			for {
				left := time.Until(due)
				switch {
				case left <= 0:
					return
				case inFlight.Load() > 0:
					// Stay off the CPUs while the program runs, but look again
					// soon: a sleep overshoots by more than most ops take.
					time.Sleep(min(left, time.Millisecond))
				case left > room:
					runKernel()
				default: // too short for a kernel: spin, and be on time
					y.spinUntil(due)
				}
			}
		}
		for i, a := range arrivals {
			due := start.Add(time.Duration(float64(a.dueNs) * stretch))
			waitUntil(due)
			inFlight.Add(1)
			wg.Add(1)
			go func(i int, a arrival) {
				defer wg.Done()
				sent := time.Now()
				info, err := sub.submit(a)
				results[i] = done{due: due, sent: sent, end: time.Now(), info: info, err: err}
				inFlight.Add(-1)
			}(i, a)
			// Let the request start on this thread, which is awake, instead
			// of waiting for a parked one to wake; the generator moves over.
			runtime.Gosched()
		}
		waitUntil(start.Add(length))
		offered := time.Since(start)
		wg.Wait()
		cpu := float64(processCPUNs()-cpu0) - float64(y.cpuNs-own0)
		for i := 0; i < refNear; i++ { // so that the window's last ops have kernels after them
			runKernel()
		}

		windowRef := median(kernelNs[firstKernel:])
		completed := 0
		for i, r := range results {
			m.attempted++
			if r.err != nil {
				m.fail(r.err)
				continue
			}
			completed++
			// The refNear kernels that ended before the op was due, and the
			// refNear that started after it completed.
			after := sort.Search(len(kernelNs), func(k int) bool { return kernelStart[k].After(r.end) })
			before := sort.Search(len(kernelNs), func(k int) bool {
				return !kernelStart[k].Add(time.Duration(kernelNs[k])).Before(r.due)
			})
			ref := adjacentRef(
				median(kernelNs[max(0, before-refNear):before]),
				median(kernelNs[after:min(after+refNear, len(kernelNs))]))
			dur := r.end.Sub(r.due)
			if m.record(float64(dur), ref, h.tr != nil, r.info) <= openLimitMs {
				m.withinLimit++
			}
			m.lateMs = append(m.lateMs, float64(r.sent.Sub(r.due))/1e6)
			emitSpans(h, w, win*sched.perWindow+i, r.due, r.sent, dur, r.info)
		}
		if completed > 0 {
			m.cpuNormMs += normalise(cpu, windowRef) / 1e6
		}
		m.normSec += float64(offered) / stretch / 1e9 // on the machine the schedule was laid out for
	}
	return m
}

// openSchedule is the shape of the open loop's offered load: perWindow
// arrivals in every window of windowNs on the nominal machine.
type openSchedule struct {
	perWindow int
	windowNs  int64
}

// refNear is how many kernels on each side of an open-loop op its
// reference is the median of.
const refNear = 3

// emitSpans records the spans of one completed op on the traced half:
// op (due → completion) → the call (sent → completion) → what the call
// reported about its inside. dur is measured from due.
func emitSpans(h half, w workload, op int, due, sent time.Time, dur time.Duration, info opInfo) {
	tr := h.tr
	if tr == nil {
		return
	}
	root := tr.add("op", op, -1, due, dur, false)
	call := tr.add(w.call, op, root, sent, dur-sent.Sub(due), false)

	stages := []string{"conv.stageA", "conv.stageB", "conv.stageC"}
	if st := info.stats; st.StageA > 0 {
		// In process: the call returned its queue wait and stage times.
		at := sent
		if info.wait > 0 {
			tr.add("serve.queue", op, call, at, info.wait, true)
			at = at.Add(info.wait)
		}
		tr.chain(op, call, at, stages, []time.Duration{st.StageA, st.StageB, st.StageC})
		return
	}
	// Over the wire: the server's timeline of this job, by its trace id.
	snap, ok := h.jobs.Job(jobtrace.TraceID(info.traceID))
	if info.traceID == 0 || !ok || snap.Phases == nil {
		return
	}
	p := snap.Phases
	at := snap.Start
	for _, phase := range []struct {
		name string
		ns   int64
	}{{"job.place", p.PlaceNs}, {"job.queue", p.QueueNs}, {"job.compute", p.ComputeNs}, {"job.stream", p.StreamNs}} {
		d := time.Duration(phase.ns)
		id := tr.add(phase.name, op, call, at, d, true)
		if phase.name == "job.compute" {
			var sd []time.Duration
			for _, ev := range snap.Events {
				if ev.Kind == jobtrace.KindStage.String() {
					sd = append(sd, time.Duration(ev.Arg))
				}
			}
			if len(sd) == len(stages) {
				tr.chain(op, id, at, stages, sd)
			}
		}
		at = at.Add(d)
	}
}
