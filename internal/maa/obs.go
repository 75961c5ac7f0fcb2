package maa

import "metis/internal/obs"

// MAA counters, incremented once per Solve (fallback rows fire per
// vanishing relaxation row, which is rare numerical noise, not a hot
// path).
var (
	cSolves       = obs.NewCounter("maa.solves", "completed MAA solves")
	cRoundings    = obs.NewCounter("maa.roundings", "randomized roundings evaluated (Options.Rounds per solve)")
	cFallbackRows = obs.NewCounter("maa.fallback_rows", "requests rounded to path 0 because their fractional row vanished")
)
