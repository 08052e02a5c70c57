//go:build race

package sim

// raceEnabled reports whether the race detector is on (see norace_test.go).
const raceEnabled = true
