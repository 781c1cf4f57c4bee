//go:build race

package cluster

// raceEnabled reports whether this test binary was built with the race
// detector, which slows the pipelines' arithmetic about twentyfold.
const raceEnabled = true
