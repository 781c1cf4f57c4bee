//go:build !race

package conv

const raceEnabled = false
