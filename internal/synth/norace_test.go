//go:build !race

package synth

// raceEnabled reports whether the race detector is on (see race_test.go).
const raceEnabled = false
