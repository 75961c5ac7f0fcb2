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
	cDegenerate  = obs.NewCounter("lp.degenerate_pivots", "primal pivots with a (near-)zero step; sustained runs demote the primal to hashed ratio-test ties, then to Bland's rule")
	cIterLimit   = obs.NewCounter("lp.iterlimit", "solves that stopped at the iteration cap")
	cCanceled    = obs.NewCounter("lp.canceled", "solves stopped by Options.Ctx cancellation or deadline")

	cLUFactors      = obs.NewCounter("lp.lu.factors", "sparse LU (re)factorizations of the basis matrix")
	cLUUpdates      = obs.NewCounter("lp.lu.updates", "in-place basis updates applied between refactorizations: key swaps, key changes and Forrest-Tomlin column replacements")
	cLUKeySwaps     = obs.NewCounter("lp.lu.key_swaps", "updates that only rewrote the key block: a key column left for a member of its key row with no other basic member")
	cLUKeyChanges   = obs.NewCounter("lp.lu.key_changes", "updates whose leaving key column handed its key row to a basic member before the column replacement")
	cLURefactorStab = obs.NewCounter("lp.lu.refactor_unstable", "refactorizations forced by an update's stability test: a pivot small against its direction, or a Forrest-Tomlin diagonal that disagrees with it")
	cLURefactorFill = obs.NewCounter("lp.lu.refactor_fill", "refactorizations forced by the growth of U and the row-eta file past a multiple of the fresh factor")
	cLUFillNNZ      = obs.NewCounter("lp.lu.fill_nnz", "cumulative nonzeros (L+U+diag) across factorizations; divide by lp.lu.factors for mean fill")
	cLUSingular     = obs.NewCounter("lp.lu.singular", "factorizations that found the basis numerically singular; mid-solve, the pivot that made it is rejected")

	cPricingScanned   = obs.NewCounter("lp.pricing.scanned", "candidate columns priced across primal entering scans (both rungs)")
	cPricingFallbacks = obs.NewCounter("lp.pricing.fallbacks", "primal anti-cycling demotions on degenerate plateaus: sectional Dantzig -> hashed ratio-test ties -> Bland")

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
