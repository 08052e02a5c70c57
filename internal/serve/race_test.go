//go:build race

package serve

// raceEnabled reports whether the race detector is on (see norace_test.go).
const raceEnabled = true
