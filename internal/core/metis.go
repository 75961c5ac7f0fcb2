// Package core implements Metis, the paper's framework for service
// profit maximization in geo-distributed clouds. Metis alternates two
// approximation algorithms for up to θ rounds:
//
//  1. MAA (RL-SPM Solver): given the currently accepted request set,
//     find a routing that minimizes bandwidth cost.
//  2. BW Limiter (rule τ): shrink the capacity of the link with the
//     minimum average utilization in MAA's schedule.
//  3. TAA (BL-SPM Solver): under the shrunk capacities, maximize
//     revenue, possibly declining requests. This step runs TAA's
//     density-greedy arm (taa.Solver.Greedy): the paper's LP and
//     Chernoff walk never change a Metis result (DESIGN.md,
//     "Implementation refinements").
//
// An SP Updater records the most profitable schedule seen across all
// rounds; the request set passed to the next round is TAA's accepted
// set, so the loop converges in at most K rounds.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"metis/internal/fault"
	"metis/internal/lp"
	"metis/internal/maa"
	"metis/internal/obs"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/spm"
	"metis/internal/stats"
	"metis/internal/taa"
)

// Default parameter values.
const (
	// DefaultTheta is the default number of alternation rounds θ.
	DefaultTheta = 8
	// DefaultTauStep is the default number of bandwidth units the BW
	// Limiter removes from the least-utilized link per round.
	DefaultTauStep = 1
)

// Config parameterizes a Metis run.
type Config struct {
	// Theta is the maximum number of MAA/TAA alternation rounds
	// (default DefaultTheta). The loop also stops when TAA declines
	// every request or a round leaves the accepted set unchanged with
	// no capacity left to shrink.
	Theta int
	// TauStep is the τ rule's shrink amount in bandwidth units
	// (default DefaultTauStep). When TauFrac is set, the shrink amount
	// is max(TauStep, ceil(TauFrac·units)) of the target link.
	TauStep int
	// TauFrac optionally makes the τ rule proportional: the BW Limiter
	// removes this fraction of the target link's current units per
	// round (0 disables).
	TauFrac float64
	// MAARounds is the number of randomized roundings per MAA call
	// (default 1; the best-of-R rounding is an extension knob).
	MAARounds int
	// LP configures all relaxation solves. Its Ctx is not read from
	// here: the context SolveCtx is given (none for Solve) is the one
	// carrier, and SolveCtx installs it as LP.Ctx for every stage. A nil
	// LP.Tracer falls back to Tracer.
	LP lp.Options
	// Seed drives MAA's randomized rounding.
	Seed int64
	// Tracer, when non-nil, receives the structured solve timeline: one
	// "metis.round" span per alternation round, a "metis.solve" span for
	// the whole run, and — unless LP.Tracer is set separately — every
	// stage's spans ("lp.solve", "maa.solve") beneath them. Nil (the
	// default) disables tracing with zero overhead.
	Tracer obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Theta <= 0 {
		c.Theta = DefaultTheta
	}
	if c.TauStep <= 0 {
		c.TauStep = DefaultTauStep
	}
	if c.MAARounds <= 0 {
		c.MAARounds = 1
	}
	return c
}

// RoundStats records one alternation round for analysis and ablations.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int `json:"round"`
	// Accepted is the size of the request set entering the round.
	Accepted int `json:"accepted"`
	// MAAProfit is the profit of the round's MAA (serve-everything)
	// schedule.
	MAAProfit float64 `json:"maa_profit"`
	// TAAProfit is the profit of the round's TAA schedule.
	TAAProfit float64 `json:"taa_profit"`
	// TAAAccepted is the number of requests TAA kept.
	TAAAccepted int `json:"taa_accepted"`
	// MAAElapsed is the wall time of the round's MAA stage (sub-instance
	// build, relaxation+rounding, lift and prune).
	MAAElapsed time.Duration `json:"maa_elapsed_ns"`
	// TAAElapsed is the wall time of the round's TAA stage.
	TAAElapsed time.Duration `json:"taa_elapsed_ns"`
	// ShrinkLink is the link the BW Limiter shrank this round, or -1
	// when no link had positive capacity left.
	ShrinkLink int `json:"shrink_link"`
	// ShrinkStep is the number of bandwidth units removed (after stall
	// escalation and the TauFrac rule).
	ShrinkStep int `json:"shrink_step"`
	// BestProfit is the SP Updater's best profit after the round.
	BestProfit float64 `json:"best_profit"`
	// Elapsed is the wall time the round took.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Result is the output of a Metis run.
type Result struct {
	// Schedule is the most profitable schedule found. It is defined on
	// the original instance; declined requests carry sched.Declined.
	Schedule *sched.Schedule
	// Profit, Revenue and Cost summarize Schedule.
	Profit, Revenue, Cost float64
	// Charged is the integer bandwidth purchase backing Schedule.
	Charged []int
	// Rounds is the per-round history.
	Rounds []RoundStats
	// Elapsed is the total wall time.
	Elapsed time.Duration
	// Degraded reports that the run's context expired mid-solve and the
	// alternation stopped early: Schedule is the SP Updater's best
	// incumbent at that point (always a feasible schedule — at worst the
	// greedy seed), not the full-θ result.
	Degraded bool
	// Cause is the typed reason a degraded run stopped (matches
	// solvectx.ErrCanceled or solvectx.ErrDeadline via errors.Is). Nil
	// when Degraded is false.
	Cause error
}

// ErrNoRequests is returned for an empty instance.
var ErrNoRequests = errors.New("core: instance has no requests")

// Solve runs Metis on inst.
func Solve(inst *sched.Instance, cfg Config) (*Result, error) {
	return SolveCtx(nil, inst, cfg)
}

// SolveCtx runs Metis on inst under a context. A nil (or never-expiring)
// ctx reproduces Solve bit for bit. When ctx expires:
//
//   - before any alternation work has started, SolveCtx returns a nil
//     result and an error matching solvectx.ErrCanceled or
//     solvectx.ErrDeadline;
//   - mid-run, the alternation stops at the next checkpoint (between
//     rounds, between stages, or inside a stage's LP at an iteration
//     boundary) and SolveCtx returns the SP Updater's best schedule so
//     far with Result.Degraded set and Result.Cause holding the typed
//     reason — a degraded run is a successful solve with fewer rounds,
//     not an error.
//
// ctx is the one carrier of the run's context: it is threaded into
// every stage beneath as cfg.LP.Ctx, replacing whatever the caller left
// there, so a round blocked inside a large simplex solve still stops
// within one iteration batch.
//
// A Solve allocates only what its Result holds. Everything it works in
// is storage that Solves hand on to one another (solveStorage): the
// round's sub-instance, MAA's RL-SPM LP with its simplex arrays, TAA's
// greedy arm's order and load tracker, every schedule, load matrix and
// index list of the rounds, and the RNG source, re-seeded in place.
// LPs are rebuilt into the arrays of the last build, rows and columns
// in the same order, so every relaxation is the solve of the same
// matrix and results are those of rebuilding
// from fresh memory, bit for bit. The Result is copied out of the
// storage once, and the storage keeps no reference to inst, ctx or
// cfg's tracer when the Solve ends.
func SolveCtx(ctx context.Context, inst *sched.Instance, cfg Config) (*Result, error) {
	st := takeStorage()
	defer putStorage(st)
	return solve(ctx, inst, cfg, st)
}

// solve is SolveCtx in the given storage.
func solve(ctx context.Context, inst *sched.Instance, cfg Config, st *solveStorage) (*Result, error) {
	cfg = cfg.withDefaults()
	if inst.NumRequests() == 0 {
		return nil, ErrNoRequests
	}
	// Thread the context into every stage: MAA's LP reads cfg.LP.Ctx.
	cfg.LP.Ctx = ctx
	if err := solvectx.Err(cfg.LP.Ctx); err != nil {
		cCanceled.Inc()
		return nil, fmt.Errorf("core: %w", err)
	}
	// Thread the run tracer into every stage beneath (LP and MAA read it
	// from the LP options); an explicitly set LP.Tracer wins.
	if cfg.LP.Tracer == nil {
		cfg.LP.Tracer = cfg.Tracer
	}
	start := time.Now()
	defer st.drop()
	st.rng.Reseed(cfg.Seed)
	sp := &st.sp

	// SP Updater state: profit starts at zero (accept nothing, buy
	// nothing); any schedule must beat it to be recorded, and is copied
	// into best when it does. A cheap bottom-up greedy seeds the updater
	// so that sparse workloads — where the accept-everything starting
	// point is deeply unprofitable and θ rounds of alternation cannot
	// reach the profitable core — still produce a sensible schedule.
	best := &st.best
	best.Reset(inst)
	bestProfit := 0.0
	greedySeed := greedyProfitCandidate(inst, &st.greedy)
	if greedyProfit := sp.prune(greedySeed); greedyProfit > bestProfit {
		best.CopyFrom(greedySeed)
		bestProfit = greedyProfit
	}

	// Indices (into inst) of the currently accepted request set.
	accepted := st.accepted[:0]
	for i := range inst.NumRequests() {
		accepted = append(accepted, i)
	}

	// MAA's relaxation is solved cold every round: its rounding draws
	// path picks from the relaxation's vertex, and a different start
	// moves that vertex at a measured profit cost. A crash-started RL
	// solve (each request's cheapest path basic, later rounds from MAA's
	// previous routing) ran offline-plan 1.5–2.2x faster but lost 0.96%
	// profit per θ = 8 cell (23 wins, 33 losses) where changing only the
	// LU refactor interval moves the same cells by −0.20% on average (see
	// ROADMAP item 2). So MAA's relaxation is the cold solve of the
	// round's sub-instance, rebuilt each round into the Solve's storage
	// (solveStorage). The previous round's relaxation is reused outright
	// when TAA declined nothing: the accepted set, and hence the RL-SPM
	// LP, is then identical (RL-SPM depends only on the request set,
	// not on capacities).
	lastAccepted := st.lastAccepted[:0]
	var lastRel *spm.RelaxedRL

	// Degradation state: when the context expires mid-run, the loop
	// breaks at the next checkpoint and the solve returns the best
	// incumbent with Degraded set instead of an error.
	var cause error

	rounds := st.rounds[:0]
	// The lists go back to the storage however the Solve ends; accepted
	// and st.next are never the same array.
	defer func() { st.accepted, st.lastAccepted, st.rounds = accepted, lastAccepted, rounds }()
	stall := 0 // consecutive rounds in which TAA declined nothing
	for round := 1; round <= cfg.Theta && len(accepted) > 0; round++ {
		// Per-round checkpoint (and fault site): a budget that expires
		// between rounds costs no partial round work.
		if fault.Active() {
			fault.Hit("core.round")
		}
		if err := solvectx.Err(cfg.LP.Ctx); err != nil {
			cause = fmt.Errorf("core: round %d: %w", round, err)
			break
		}
		roundStart := time.Now()
		sub := &st.sub
		if err := sub.SetSubset(inst, accepted); err != nil {
			return nil, fmt.Errorf("core: round %d: %w", round, err)
		}

		// RL-SPM Solver.
		maaOpts := maa.Options{LP: cfg.LP, Rounds: cfg.MAARounds, RNG: &st.rng}
		if lastRel != nil && equalInts(lastAccepted, accepted) {
			// Identical accepted set ⇒ identical RL-SPM LP ⇒ the cold
			// solve would reproduce last round's relaxation bit for bit;
			// skip it.
			maaOpts.Relaxed = lastRel
		}
		maaRes, err := st.maa.Solve(sub, maaOpts)
		if err != nil {
			if solvectx.Is(err) {
				cause = fmt.Errorf("core: round %d: %w", round, err)
				break
			}
			return nil, fmt.Errorf("core: round %d: %w", round, err)
		}
		lastAccepted = append(lastAccepted[:0], accepted...)
		lastRel = maaRes.Relaxed
		maaSched := &st.maaSched
		liftSchedule(maaSched, inst, accepted, maaRes.Schedule)
		maaProfit := sp.prune(maaSched)
		if fault.Active() {
			// Fault site: a poisoned profit must never displace the
			// incumbent (NaN fails every > comparison below).
			maaProfit = fault.NaN("core.profit", maaProfit)
		}
		if maaProfit > bestProfit {
			best.CopyFrom(maaSched)
			bestProfit = maaProfit
		}
		maaElapsed := time.Since(roundStart)

		// BW Limiter (rule τ): shrink the least-utilized charged link.
		// While rounds stall (TAA declines nothing, so the next round
		// would repeat), the shrink escalates exponentially — the
		// alternation needs accumulated scarcity before BL-SPM starts
		// trading requests for bandwidth.
		caps := maaRes.Charged
		step := cfg.TauStep << uint(min(stall, 20))
		shrinkLink, shrinkStep := shrinkLeastUtilized(maaRes.Schedule, caps, step, cfg.TauFrac, sp)

		// BL-SPM Solver: TAA's density-greedy arm under τ's capacities.
		taaStart := time.Now()
		taaSched := &st.taaSched
		liftSchedule(taaSched, inst, accepted, st.taa.Greedy(sub, caps))
		taaProfit := sp.prune(taaSched)
		if taaProfit > bestProfit {
			best.CopyFrom(taaSched)
			bestProfit = taaProfit
		}

		// The next round's request set is TAA's acceptance decision
		// after pruning (taaSched lives on the original instance),
		// written into the spare list.
		next := taaSched.AcceptedInto(st.next)
		rounds = append(rounds, RoundStats{
			Round:       round,
			Accepted:    len(accepted),
			MAAProfit:   maaProfit,
			TAAProfit:   taaProfit,
			TAAAccepted: len(next),
			MAAElapsed:  maaElapsed,
			TAAElapsed:  time.Since(taaStart),
			ShrinkLink:  shrinkLink,
			ShrinkStep:  shrinkStep,
			BestProfit:  bestProfit,
			Elapsed:     time.Since(roundStart),
		})
		if cfg.Tracer != nil {
			rs := &rounds[len(rounds)-1]
			obs.Span(cfg.Tracer, "metis.round", roundStart, obs.Fields{
				"round":        rs.Round,
				"accepted":     rs.Accepted,
				"maa_us":       rs.MAAElapsed.Microseconds(),
				"taa_us":       rs.TAAElapsed.Microseconds(),
				"maa_profit":   rs.MAAProfit,
				"taa_profit":   rs.TAAProfit,
				"taa_accepted": rs.TAAAccepted,
				"shrink_link":  rs.ShrinkLink,
				"shrink_step":  rs.ShrinkStep,
				"best_profit":  rs.BestProfit,
				"rel_reused":   maaOpts.Relaxed != nil,
			})
		}
		if len(next) == len(accepted) {
			stall++
			cStallRounds.Inc()
		} else {
			stall = 0
		}
		accepted, st.next = next, accepted
	}
	cSolves.Inc()
	cRounds.Add(int64(len(rounds)))
	if cause != nil {
		cDegraded.Inc()
		gRoundsAtExpiry.Set(int64(len(rounds)))
	}

	// One loads pass backs Cost and Charged both (Revenue never looks
	// at loads), instead of recomputing the matrix per accessor.
	sp.loads = best.LoadsInto(sp.loads)
	charged := sched.ChargedOf(sp.loads)
	if cfg.Tracer != nil {
		fields := obs.Fields{
			"k":        inst.NumRequests(),
			"rounds":   len(rounds),
			"accepted": best.NumAccepted(),
			"profit":   bestProfit,
		}
		if cause != nil {
			fields["degraded"] = true
		}
		obs.Span(cfg.Tracer, "metis.solve", start, fields)
	}
	res := &Result{
		Schedule: best.Clone(),
		Profit:   bestProfit,
		Revenue:  best.Revenue(),
		Cost:     best.CostOfCharged(charged),
		Charged:  charged,
		Elapsed:  time.Since(start),
		Degraded: cause != nil,
		Cause:    cause,
	}
	if len(rounds) > 0 {
		res.Rounds = slices.Clone(rounds)
	}
	return res, nil
}

// solveStorage is what Solves hand on to one another: everything a
// Solve works in, from MAA's and TAA's solvers to the
// round's sub-instance, the SP Updater's schedules and the index lists.
// A Solve takes one from storagePool and puts it back when it ends, so
// the next Solve starts from it; Solves that run at once (exp's figure
// workers) each hold their own.
type solveStorage struct {
	maa    maa.Solver
	taa    taa.Solver
	rng    stats.RNG
	sub    sched.Instance
	greedy greedyBuf
	sp     spScratch

	// The SP Updater's best schedule (a copy) and the round's lifted
	// MAA and TAA schedules, all on the Solve's instance.
	best, maaSched, taaSched sched.Schedule

	accepted, next, lastAccepted []int
	rounds                       []RoundStats
}

// drop ends a Solve's use of st: whatever referenced the Solve's
// instance, context or tracer lets go of it, and the arrays stay.
// Everything else in st references only st.
func (st *solveStorage) drop() {
	st.sub.Drop()
	st.greedy.drop()
	st.best.Reset(nil)
	st.maaSched.Reset(nil)
	st.taaSched.Reset(nil)
}

// storagePool holds the storage of finished Solves for the next ones,
// at most GOMAXPROCS of them: the next Solve takes the last one put
// back, on whichever P it runs. (A sync.Pool would hand a Solve on
// another P a new storage, and lose all of them at a collection.)
var storagePool struct {
	sync.Mutex
	free []*solveStorage
}

func takeStorage() *solveStorage {
	storagePool.Lock()
	defer storagePool.Unlock()
	n := len(storagePool.free)
	if n == 0 {
		return new(solveStorage)
	}
	st := storagePool.free[n-1]
	storagePool.free[n-1] = nil
	storagePool.free = storagePool.free[:n-1]
	return st
}

func putStorage(st *solveStorage) {
	storagePool.Lock()
	defer storagePool.Unlock()
	if len(storagePool.free) < runtime.GOMAXPROCS(0) {
		storagePool.free = append(storagePool.free, st)
	}
}

// liftSchedule makes s the schedule over inst that sub, a schedule over
// a Subset instance, describes: sub request k corresponds to inst
// request mapping[k], and candidate path indices coincide by
// construction.
func liftSchedule(s *sched.Schedule, inst *sched.Instance, mapping []int, sub *sched.Schedule) {
	s.Reset(inst)
	for k, orig := range mapping {
		if c := sub.Choice(k); c != sched.Declined {
			// Assign cannot fail: path sets are shared with the subset.
			if err := s.Assign(orig, c); err != nil {
				panic("core: lift schedule: " + err.Error())
			}
		}
	}
}

// greedyBuf is greedyProfitCandidate's storage.
type greedyBuf struct {
	byValue, byMarkup []int
	markup            []float64
	sweep             [2]sched.Schedule
	capacity          sched.Capacity
	loads             [][]float64
}

// drop lets go of the instance and network of the last candidate.
func (g *greedyBuf) drop() {
	g.sweep[0].Reset(nil)
	g.sweep[1].Reset(nil)
	g.capacity.Renew(nil, 0)
}

// greedyProfitCandidate builds a bottom-up schedule in g: requests are
// accepted on the candidate path with the lowest marginal purchase
// cost iff their value exceeds that marginal cost, sweeping repeatedly
// so that headroom created by earlier acceptances admits later
// requests. Two orderings are tried — descending value (big buyers
// create reusable pools) and descending markup (most profitable
// first) — and the better schedule wins (markup must be strictly
// better). The schedule is g's until its next candidate.
func greedyProfitCandidate(inst *sched.Instance, g *greedyBuf) *sched.Schedule {
	slots := inst.Slots()
	n := inst.NumRequests()
	byValue := slices.Grow(g.byValue[:0], n)[:n]
	byMarkup := slices.Grow(g.byMarkup[:0], n)[:n]
	markup := slices.Grow(g.markup[:0], n)[:n]
	for i := range byValue {
		byValue[i] = i
		byMarkup[i] = i
		r := inst.Request(i)
		amortized := r.Rate * float64(r.Duration()) / float64(slots) * inst.Path(i, 0).Price
		markup[i] = r.Value / amortized
	}
	slices.SortStableFunc(byValue, func(a, b int) int {
		return cmp.Compare(inst.Request(b).Value, inst.Request(a).Value)
	})
	slices.SortStableFunc(byMarkup, func(a, b int) int { return cmp.Compare(markup[b], markup[a]) })
	g.byValue, g.byMarkup, g.markup = byValue, byMarkup, markup

	best, alt := &g.sweep[0], &g.sweep[1]
	g.sweepInto(best, inst, byValue)
	g.sweepInto(alt, inst, byMarkup)
	if g.profit(alt) > g.profit(best) {
		best = alt
	}
	return best
}

// profit is s.Profit() in g's load matrix.
func (g *greedyBuf) profit(s *sched.Schedule) float64 {
	g.loads = s.LoadsInto(g.loads)
	return s.Revenue() - s.CostWithLoads(g.loads)
}

// greedyPasses bounds the admission passes of a greedy sweep; later
// passes admit what headroom bought by later requests makes free.
const greedyPasses = 4

// sweepInto makes s the schedule of marginal-cost admission over the
// given order from empty capacity, run until a fixpoint (bounded
// passes).
func (g *greedyBuf) sweepInto(s *sched.Schedule, inst *sched.Instance, order []int) {
	s.Reset(inst)
	g.capacity.Renew(inst.Network(), inst.Slots())
	g.capacity.Admit(s, order, greedyPasses)
}

// spScratch is what the SP Updater's passes reuse from call to call: a
// per-link load matrix, the pruner's candidate order and its per-link
// running peaks. Every load matrix a pass consumes is recomputed fresh
// via LoadsInto, so results are bit-identical to allocating per call.
type spScratch struct {
	loads [][]float64
	order []int
	// pre[e][t] and suf[e][t] are the peaks of link e's loads over
	// slots 0..t and t..T−1, floored at 0; prune keeps them current.
	pre, suf [][]float64
}

// peaks recomputes link e's prefix and suffix peaks from its loads.
func (sp *spScratch) peaks(e int) {
	v, pre, suf := sp.loads[e], sp.pre[e], sp.suf[e]
	var p float64
	for t, x := range v {
		if x > p {
			p = x
		}
		pre[t] = p
	}
	p = 0
	for t := len(v) - 1; t >= 0; t-- {
		if x := v[t]; x > p {
			p = x
		}
		suf[t] = p
	}
}

// prune is the SP Updater's local-improvement step: it repeatedly
// declines any served request whose value is below the bandwidth cost
// its removal frees up (whole charged units only — the integer billing
// granularity is exactly why single removals rarely pay, and why
// candidates are retried until a fixpoint). Requests are tried in
// ascending value order. It returns the schedule's profit after
// pruning.
//
// A link's peak without request i is max(the peak outside i's window,
// the peak inside it − i's rate): rounding is monotone, so that is the
// same float as the maximum of the reduced loads. The peak outside the
// window comes from the link's prefix and suffix peaks, which change
// only when a decline changes the link's loads; the window is scanned
// only when that outside peak does not already hold the link's charged
// units.
func (sp *spScratch) prune(s *sched.Schedule) float64 {
	inst := s.Instance()
	net := inst.Network()
	slots := inst.Slots()
	sp.loads = s.LoadsInto(sp.loads)
	loads := sp.loads
	sp.pre = sched.ZeroLoads(sp.pre, len(loads), slots)
	sp.suf = sched.ZeroLoads(sp.suf, len(loads), slots)
	for e := range loads {
		sp.peaks(e)
	}
	pre, suf := sp.pre, sp.suf

	sp.order = s.AcceptedInto(sp.order)
	order := sp.order
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Compare(inst.Request(a).Value, inst.Request(b).Value)
	})

	for pass := 0; pass < 16; pass++ {
		improved := false
		for _, i := range order {
			c := s.Choice(i)
			if c == sched.Declined {
				continue
			}
			r := inst.Request(i)
			lo, hi := max(r.Start, 0), min(r.End, slots-1)
			// Cost saved by removing i: per path link, units between
			// ceil(peak) and ceil(peak without i).
			var saved float64
			for _, e := range inst.Path(i, c).Links {
				peak := pre[e][slots-1]
				var outside float64
				if lo > 0 {
					outside = pre[e][lo-1]
				}
				if hi+1 < slots && suf[e][hi+1] > outside {
					outside = suf[e][hi+1]
				}
				units := sched.CeilUnits(peak)
				if units == sched.CeilUnits(outside) {
					continue
				}
				var inside float64
				for _, v := range loads[e][lo : hi+1] {
					if v > inside {
						inside = v
					}
				}
				peakWithout := outside
				if v := inside - r.Rate; v > peakWithout {
					peakWithout = v
				}
				if units -= sched.CeilUnits(peakWithout); units > 0 {
					saved += float64(units) * net.Link(e).Price
				}
			}
			if saved <= r.Value {
				continue
			}
			s.Decline(i)
			for _, e := range inst.Path(i, c).Links {
				for t := r.Start; t <= r.End; t++ {
					loads[e][t] -= r.Rate
				}
				sp.peaks(e)
			}
			improved = true
		}
		if !improved {
			break
		}
	}
	// Recompute loads fresh for the final profit: the incrementally
	// maintained matrix can differ from a from-scratch sum in the last
	// ulp, and charged units must match what Cost() would report.
	sp.loads = s.LoadsInto(loads)
	return s.Revenue() - s.CostWithLoads(sp.loads)
}

// shrinkLeastUtilized implements the τ rule: reduce the capacity of the
// link with the minimum average utilization among links with positive
// capacity, by max(step, ceil(frac·units)) units. Ties break toward the
// lower link id. It computes the loads in sp's matrix, and returns the
// shrunk link id (-1 when no link has positive capacity) and the number
// of units actually removed.
func shrinkLeastUtilized(s *sched.Schedule, caps []int, step int, frac float64, sp *spScratch) (int, int) {
	sp.loads = s.LoadsInto(sp.loads)
	loads := sp.loads
	slots := s.Instance().Slots()
	target := -1
	bestUtil := math.Inf(1)
	for e, c := range caps {
		if c <= 0 {
			continue
		}
		var total float64
		for _, v := range loads[e] {
			total += v
		}
		util := total / float64(slots) / float64(c)
		if util < bestUtil {
			bestUtil, target = util, e
		}
	}
	if target < 0 {
		return -1, 0
	}
	if frac > 0 {
		if byFrac := int(math.Ceil(frac * float64(caps[target]))); byFrac > step {
			step = byFrac
		}
	}
	if step > caps[target] {
		step = caps[target]
	}
	caps[target] -= step
	return target, step
}

// equalInts reports whether a and b hold the same values.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
