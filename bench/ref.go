package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// RefNominalMs is the duration the yardstick is defined to take on the
// nominal machine. Every reported time is raw × RefNominalMs ÷ (the
// yardstick's measured duration next to it), so units stay ms and s:
// "normalised to a machine where the yardstick takes 2 ms".
const RefNominalMs = 2.0

const (
	refN     = 1 << 16
	burstLen = 9 // kernels per bracket burst (setup_s, probes)
)

// yardstick is the benchmark-owned reference kernel: one copy of 2^16
// complex128 (1 MiB) followed by 16 single-threaded radix-2 butterfly
// passes over it. It is written here and never calls internal/fft, so
// that optimising the program cannot move the yardstick.
type yardstick struct {
	pristine []complex128
	twiddle  []complex128
	work     [2][]complex128 // one buffer per lane; lane 1 runs only in pairs

	mode refMode

	wallNs []float64 // every kernel's wall time, for bench.ref_* diagnostics
	cpuNs  int64     // thread CPU the benchmark spent on itself: kernels and spinUntil
}

// refMode says under which conditions the yardstick runs, to match the
// conditions the op runs under.
type refMode int

const (
	// refAlone: one kernel on the calling thread, the other vCPU idle. For
	// an op that is one thread of work and stays where it is.
	refAlone refMode = iota
	// refPair: two kernels started together, one per vCPU, each timed by
	// itself, the reference their mean. An op that keeps both vCPUs busy
	// runs at the speed the vCPUs have when both are busy, which a kernel
	// next to an idle vCPU does not see.
	refPair
	// refEachCPU: two kernels one after the other, the thread pinned to
	// one vCPU and then to the other, the reference their mean. An op that
	// is one thread of work hopping between the vCPUs (a client and a server
	// taking turns) runs at the speed of whichever it is on, and the two are
	// not always equally fast.
	refEachCPU
)

func newYardstick() *yardstick {
	y := &yardstick{
		pristine: make([]complex128, refN),
		twiddle:  make([]complex128, refN/2),
		work:     [2][]complex128{make([]complex128, refN), make([]complex128, refN)},
	}
	for i := range y.pristine {
		// Any fixed non-trivial data; the values only have to stay finite
		// across 16 passes, which the copy from pristine guarantees.
		y.pristine[i] = complex(float64(i%251)/251, float64(i%127)/127)
	}
	for i := range y.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(i) / refN)
		y.twiddle[i] = complex(c, s)
	}
	for i := 0; i < 5; i++ { // fault the pages in and warm the caches
		y.kernel(0)
		y.kernel(1)
	}
	return y
}

// kernel runs the butterfly passes once. Kept free of calls so the
// compiler sees one tight loop nest.
func (y *yardstick) kernel(lane int) {
	a, w := y.work[lane], y.twiddle
	copy(a, y.pristine)
	for half := 1; half < refN; half <<= 1 {
		step := refN / (2 * half)
		for base := 0; base < refN; base += 2 * half {
			for j := 0; j < half; j++ {
				t := w[j*step] * a[base+j+half]
				u := a[base+j]
				a[base+j] = u + t
				a[base+j+half] = u - t
			}
		}
	}
}

// once runs the yardstick once, under the conditions of y.mode, and
// returns its wall time in nanoseconds. The goroutine is pinned to its
// thread for the duration so the thread CPU clock brackets what it ran.
func (y *yardstick) once() float64 {
	runtime.LockOSThread()
	c0 := threadCPUNs()
	var d float64
	switch y.mode {
	case refAlone:
		d = y.timeKernel(0)
	case refPair:
		d = y.timePair()
	case refEachCPU:
		if err := onEachCPU(2, func() { d += y.timeKernel(0) / 2 }); err != nil {
			// A sandbox may forbid sched_setaffinity; one unpinned kernel is
			// the nearest reference that is left.
			fmt.Fprintf(os.Stderr, "bench: yardstick runs unpinned from here on: %v\n", err)
			y.mode = refAlone
			d = y.timeKernel(0)
		}
	}
	y.cpuNs += threadCPUNs() - c0
	runtime.UnlockOSThread()
	y.wallNs = append(y.wallNs, d)
	return d
}

func (y *yardstick) timeKernel(lane int) float64 {
	t0 := time.Now()
	y.kernel(lane)
	return float64(time.Since(t0))
}

// timePair runs one kernel on this thread and one on another, started at
// the same moment, and returns the mean of their own times.
func (y *yardstick) timePair() float64 {
	var ready atomic.Int32
	together := func() {
		ready.Add(1)
		for ready.Load() < 2 {
		}
	}
	other := make(chan float64)
	go func() {
		together()
		other <- y.timeKernel(1)
	}()
	together()
	d := y.timeKernel(0)
	return (d + <-other) / 2
}

// spinUntil busy-waits until t, for waits too short to sleep through
// punctually, and books the CPU as the yardstick's own.
func (y *yardstick) spinUntil(t time.Time) {
	runtime.LockOSThread()
	c0 := threadCPUNs()
	for time.Now().Before(t) {
	}
	y.cpuNs += threadCPUNs() - c0
	runtime.UnlockOSThread()
}

// median runs n kernels back to back and returns their median wall time.
func (y *yardstick) median(n int) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = y.once()
	}
	return median(v)
}

// burst is the bracket used around set-up and the layer probes.
func (y *yardstick) burst() float64 { return y.median(burstLen) }
