package lp

import "metis/internal/obs"

// Solver counters. All are flushed at solve-level boundaries (or once
// per iterate/dualIterate call from locally accumulated ints), never
// from inner loops, so collection cost is noise relative to a solve.
var (
	cSolves      = obs.NewCounter("lp.solves", "completed LP solves (cold and warm)")
	cIters       = obs.NewCounter("lp.iters", "simplex iterations across both phases and warm repairs")
	cPhase1Iters = obs.NewCounter("lp.phase1_iters", "phase-1 (feasibility) simplex iterations of cold solves")
	cPhase2Iters = obs.NewCounter("lp.phase2_iters", "phase-2 (optimality) simplex iterations of cold solves")
	cPivots      = obs.NewCounter("lp.pivots", "basis-changing pivots, primal and dual")
	cBoundFlips  = obs.NewCounter("lp.bound_flips", "bound-flip iterations (entering variable crossed its range; no basis change)")
	cDegenerate  = obs.NewCounter("lp.degenerate_pivots", "primal pivots with a (near-)zero step; sustained runs trigger Bland's anti-cycling rule")
	cIterLimit   = obs.NewCounter("lp.iterlimit", "solves that stopped at Options.MaxIters")
	cCanceled    = obs.NewCounter("lp.canceled", "solves stopped by Options.Ctx cancellation or deadline")

	cLUFactors      = obs.NewCounter("lp.lu.factors", "sparse LU (re)factorizations of the basis matrix")
	cLUUpdates      = obs.NewCounter("lp.lu.updates", "product-form (Forrest-Tomlin family) rank-1 basis updates applied between refactorizations")
	cLURefactorStab = obs.NewCounter("lp.lu.refactor_unstable", "refactorizations forced by an unstable eta pivot")
	cLURefactorFill = obs.NewCounter("lp.lu.refactor_fill", "refactorizations forced by eta-file fill growth or the eta-count cap")
	cLUFillNNZ      = obs.NewCounter("lp.lu.fill_nnz", "cumulative nonzeros (L+U+diag) across factorizations; divide by lp.lu.factors for mean fill")
	cLUSingular     = obs.NewCounter("lp.lu.singular", "factorization attempts that found the basis numerically singular")

	cPricingScanned   = obs.NewCounter("lp.pricing.scanned", "candidate columns priced across primal entering scans (both rungs)")
	cPricingFallbacks = obs.NewCounter("lp.pricing.fallbacks", "primal pricing-rule demotions sectional Dantzig -> Bland on degenerate plateaus")

	cDualColdStarts = obs.NewCounter("lp.pricing.dual_cold_starts", "cold solves that skipped primal phase 1 via a dual cold start (slack basis dual feasible; dual simplex restores primal feasibility)")
	cDualColdBails  = obs.NewCounter("lp.pricing.dual_cold_bails", "dual cold starts that stalled and fell back to classic two-phase primal simplex")

	cWarmAttempts  = obs.NewCounter("lp.warm.attempts", "warm solves attempted from a valid retained basis")
	cWarmGrows     = obs.NewCounter("lp.warm.grows", "warm solves that absorbed appended columns/rows into the retained basis (AppendColumn growth) instead of falling back cold")
	cWarmHits      = obs.NewCounter("lp.warm.hits", "warm solves completed by basis repair")
	cWarmStale     = obs.NewCounter("lp.warm.stale", "warm attempts dropped because the basis was stale (matrix or shape changed)")
	cWarmStalls    = obs.NewCounter("lp.warm.stalls", "warm repairs that stalled (iteration cap, numerical trouble, or accumulated drift)")
	cWarmFallbacks = obs.NewCounter("lp.warm.cold_fallbacks", "warm attempts handed over to the cold two-phase path")
)

// countWarm translates a warm-path outcome into counter increments.
// warmOff and warmEmpty are not attempts: the former has no handle at
// all, the latter is the first solve of a fresh handle, which runs cold
// by design to capture a basis.
func countWarm(o warmOutcome) {
	switch o {
	case warmHit:
		cWarmAttempts.Inc()
		cWarmHits.Inc()
	case warmStale:
		cWarmAttempts.Inc()
		cWarmStale.Inc()
		cWarmFallbacks.Inc()
	case warmInfeasibleBasis:
		cWarmAttempts.Inc()
		cWarmFallbacks.Inc()
	case warmStall:
		cWarmAttempts.Inc()
		cWarmStalls.Inc()
		cWarmFallbacks.Inc()
	case warmCanceled:
		// A canceled repair is an attempt that ends the solve; it neither
		// hit nor fell back cold.
		cWarmAttempts.Inc()
	}
}
