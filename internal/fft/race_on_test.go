//go:build race

package fft

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops Puts at random, so a pooled path
// that is otherwise allocation-free allocates.
const raceEnabled = true
