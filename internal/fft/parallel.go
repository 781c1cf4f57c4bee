package fft

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lowcomm3d/internal/obs"
)

// ParallelFor runs f(i) for i in [0, n) across up to workers goroutines.
// workers ≤ 0 selects GOMAXPROCS. Work is handed out in contiguous chunks
// so per-goroutine scratch stays cache-warm. Each invocation of f receives
// the worker id w (0 ≤ w < workers) so callers can index per-worker
// scratch buffers.
func ParallelFor(n, workers int, f func(w, i int)) {
	ParallelForSpanned(nil, "", n, workers, f)
}

// ParallelForSpanned is ParallelFor with per-worker observability: each
// worker goroutine's whole chunk is wrapped in an obs span named name on
// display track w+1 (track 0 stays free for the caller's stage spans), so
// a Chrome trace shows the worker lanes side by side and any load
// imbalance is visible as ragged span ends. A nil parent degrades to plain
// ParallelFor with no recording.
func ParallelForSpanned(parent *obs.Span, name string, n, workers int, f func(w, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sp := parent.StartTrack(name, 1)
		for i := 0; i < n; i++ {
			f(0, i)
		}
		sp.End()
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sp := parent.StartTrack(name, w+1)
			for i := lo; i < hi; i++ {
				f(w, i)
			}
			sp.End()
		}(w, lo, hi)
	}
	wg.Wait()
}

// Workers normalizes a requested worker count: ≤0 means GOMAXPROCS.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// FirstError collects the first error recorded from concurrent workers.
// The zero value is ready to use.
type FirstError struct {
	err atomic.Pointer[error]
}

// Record stores err if it is the first non-nil error seen. Only a non-nil
// err is copied to the heap: taking the parameter's own address would move
// it there on every call, the per-line nil calls of the transforms included.
func (f *FirstError) Record(err error) {
	if err != nil {
		e := err
		f.err.CompareAndSwap(nil, &e)
	}
}

// Reset clears any recorded error so the collector can be reused across
// runs (long-lived pipelines keep one FirstError instead of allocating a
// fresh collector per run).
func (f *FirstError) Reset() { f.err.Store(nil) }

// Err returns the first recorded error, or nil.
func (f *FirstError) Err() error {
	if p := f.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Failed reports whether any error has been recorded; workers use it to
// bail out early, once per tile, plane and slice — so it is one atomic load.
func (f *FirstError) Failed() bool { return f.err.Load() != nil }
