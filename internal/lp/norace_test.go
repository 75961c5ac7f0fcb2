//go:build !race

package lp

// raceEnabled reports that the race detector instruments this test
// binary, which slows every simplex pivot about tenfold.
const raceEnabled = false
