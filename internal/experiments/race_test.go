//go:build race

package experiments

// raceEnabled reports whether the race detector is on (see norace_test.go).
const raceEnabled = true
