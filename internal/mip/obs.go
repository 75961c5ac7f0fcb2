package mip

import "metis/internal/obs"

// Branch & bound counters, flushed once per Solve (node-level tallies
// stay in plain searcher fields during the search).
var (
	cSolves      = obs.NewCounter("mip.solves", "completed branch & bound solves")
	cNodes       = obs.NewCounter("mip.nodes", "explored branch & bound nodes")
	cIncumbents  = obs.NewCounter("mip.incumbents", "incumbent improvements found")
	cPruneBound  = obs.NewCounter("mip.prune_bound", "subtrees pruned by the incumbent bound")
	cPruneInfeas = obs.NewCounter("mip.prune_infeasible", "child nodes pruned as LP-infeasible")
	cCanceled    = obs.NewCounter("mip.canceled", "branch & bound searches stopped by Options.LP.Ctx")
	gLastGap     = obs.NewFloatGauge("mip.last_gap", "relative optimality gap of the most recent solve")
)
