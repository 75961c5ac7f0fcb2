//go:build !race

package core

// raceEnabled reports that the race detector instruments this test
// binary, which slows every simplex pivot about tenfold.
const raceEnabled = false
