//go:build !race

package experiments

// raceEnabled reports whether the race detector is on (see race_test.go).
const raceEnabled = false
