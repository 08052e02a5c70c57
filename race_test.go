//go:build race

package hap

// raceEnabled reports whether the race detector is on (see norace_test.go).
const raceEnabled = true
