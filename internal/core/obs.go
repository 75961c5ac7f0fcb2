package core

import "metis/internal/obs"

// Alternation-loop counters, incremented once per round or per solve.
var (
	cSolves      = obs.NewCounter("core.solves", "completed Metis solves")
	cRounds      = obs.NewCounter("core.rounds", "MAA/TAA alternation rounds executed")
	cStallRounds = obs.NewCounter("core.stall_rounds", "rounds in which TAA declined nothing (shrink escalation active)")
)

// Cross-epoch replanner outcomes.
var (
	cReplanRefines   = obs.NewCounter("core.replan.refines", "replans that ran one incumbent-refinement round on the persistent model")
	cReplanFallbacks = obs.NewCounter("core.replan.fallbacks", "incremental replans that dropped the persistent session and fell back to a cold full solve")
)

// Deadline/cancellation outcomes of SolveCtx.
var (
	cCanceled       = obs.NewCounter("solve.canceled", "Metis solves rejected before any round (context already expired)")
	cDegraded       = obs.NewCounter("solve.degraded", "Metis solves cut short mid-run, returning the SP Updater's best incumbent")
	gRoundsAtExpiry = obs.NewGauge("solve.rounds_at_expiry", "alternation rounds completed when the last degraded solve's context expired")
)
