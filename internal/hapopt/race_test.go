//go:build race

package hapopt

// raceEnabled reports whether the race detector is on (see norace_test.go).
const raceEnabled = true
