//go:build race

package synth

// raceEnabled reports whether the race detector is on (see norace_test.go).
const raceEnabled = true
