//go:build race

package sample

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on paths that are otherwise
// allocation-free.
const raceEnabled = true
