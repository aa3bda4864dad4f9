//go:build !race

package web

// raceEnabled reports a race-detector build (race_test.go).
const raceEnabled = false
