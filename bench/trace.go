package main

import "time"

// Span names the benchmark reads. The first group is emitted by the
// program, the second by the traced policies and drivers in this
// directory, the third is derived by addTickPhases.
const (
	spanEpoch = "serve.epoch"
	spanSolve = "serve.solve"
	spanLP    = "lp.solve"

	spanDecide = "policy.decide"
	spanReplan = "core.replan"

	spanTickPre  = "serve.tick_pre"
	spanTickPost = "serve.tick_post"
)

// addTickPhases splits every tick that decided a batch into three
// phases, using the two boundaries the program already marks: the
// serve.epoch span (Tick entry to commit) and the serve.solve span
// (the policy call) inside it. serve.tick_pre is everything before the
// policy runs (claim the intake shards, clamp windows,
// sched.NewInstance, LedgerCopy); serve.tick_post everything after it
// (redo record, WAL append and fsync, Ledger.CommitBatch, decision
// records, the -check sweep). Spans inside those phases are a change to
// the program; the layer probes size their parts instead. sp must be
// linked; the result is linked again.
func addTickPhases(sp []span) []span {
	byID := make(map[int]span, len(sp))
	for _, s := range sp {
		byID[s.ID] = s
	}
	next := len(sp) + 1
	for _, s := range sp {
		if s.Name != spanSolve {
			continue
		}
		e, ok := byID[s.Parent]
		if !ok || e.Name != spanEpoch {
			continue
		}
		sp = append(sp,
			span{ID: next, Track: e.Track, Name: spanTickPre, Start: e.Start, End: s.Start},
			span{ID: next + 1, Track: e.Track, Name: spanTickPost, Start: s.End, End: e.End})
		next += 2
	}
	linkSpans(sp)
	return sp
}

// spanLayers fills the per-layer figures that come from spans of the
// traced segment.
func spanLayers(layer map[string]float64, sp []span, o *outcome) {
	sums := sumSpans(sp)
	get := func(name string) *spanSum {
		if s := sums[name]; s != nil {
			return s
		}
		return &spanSum{}
	}
	byID := make(map[int]span, len(sp))
	for _, s := range sp {
		byID[s.ID] = s
	}
	// Per deciding tick: what the tick spent outside the policy, and what
	// no leaf span accounts for (the self time of the wrappers: tick,
	// policy call, policy body).
	var tickSelf samples
	var ticked, unattributed time.Duration
	for _, s := range sp {
		switch s.Name {
		case spanSolve:
			if e, ok := byID[s.Parent]; ok && e.Name == spanEpoch {
				tickSelf.add(e.dur() - s.dur())
				ticked += e.dur()
				unattributed += e.Self + s.Self
			}
		case spanDecide:
			unattributed += s.Self
		}
	}
	layer["serve.tick_self_ms_p50"] = tickSelf.sorted().quantile(0.5)
	layer["serve.tick_pre_ms_p50"] = get(spanTickPre).Durs.sorted().quantile(0.5)
	layer["serve.tick_post_ms_p50"] = get(spanTickPost).Durs.sorted().quantile(0.5)
	if ticked > 0 {
		layer["trace.tick_attributed_frac"] = 1 - ratio(float64(unattributed), float64(ticked))
	}
	rp := get(spanReplan).Durs.sorted()
	layer["core.replan_ms_p50"] = rp.quantile(0.5)
	layer["core.replan_ms_max"] = rp.quantile(1)
	layer["core.replan_share"] = ratio(float64(get(spanReplan).Dur), float64(get(spanEpoch).Dur))
	layer["lp.solve_share"] = ratio(float64(get(spanLP).Dur), float64(o.wall))
}

// counterLayers fills the per-layer figures that are ratios of the
// program's own obs counters over the traced segment.
func counterLayers(layer, c map[string]float64, sp []span, o *outcome) {
	var lpTime time.Duration
	for _, s := range sp {
		if s.Name == spanLP {
			lpTime += s.dur()
		}
	}
	layer["lp.iters_per_solve"] = ratio(c["lp.iters"], c["lp.solves"])
	layer["lp.us_per_iter"] = ratio(us(lpTime), c["lp.iters"])
	layer["lp.lu_factors_per_solve"] = ratio(c["lp.lu.factors"], c["lp.solves"])
	layer["lp.lu_updates_per_factor"] = ratio(c["lp.lu.updates"], c["lp.lu.factors"])
	layer["lp.lu_fill_nnz_per_factor"] = ratio(c["lp.lu.fill_nnz"], c["lp.lu.factors"])
	layer["lp.pricing_scanned_per_iter"] = ratio(c["lp.pricing.scanned"], c["lp.iters"])
	layer["lp.warm_hit_frac"] = ratio(c["lp.warm.hits"], c["lp.warm.attempts"])
	layer["lp.cold_fallbacks"] = c["lp.warm.cold_fallbacks"]
	layer["core.rounds_per_solve"] = ratio(c["core.rounds"], c["core.solves"])
	layer["spm.session_cold_resolves"] = c["spm.session.cold_resolves"]
	layer["taa.walk_steps_per_solve"] = ratio(c["taa.walk_steps"], c["taa.solves"])
	layer["wal.records_per_fsync"] = ratio(c["wal.appends"], c["wal.fsyncs"])
	layer["wal.bytes_per_decision"] = ratio(c["wal.bytes"], float64(o.decided))
	layer["serve.invalid"] = c["serve.invalid"]
}
