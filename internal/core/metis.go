// Package core implements Metis, the paper's framework for service
// profit maximization in geo-distributed clouds. Metis alternates two
// approximation algorithms for up to θ rounds:
//
//  1. MAA (RL-SPM Solver): given the currently accepted request set,
//     find a routing that minimizes bandwidth cost.
//  2. BW Limiter (rule τ): shrink the capacity of the link with the
//     minimum average utilization in MAA's schedule.
//  3. TAA (BL-SPM Solver): under the shrunk capacities, maximize
//     revenue, possibly declining requests.
//
// An SP Updater records the most profitable schedule seen across all
// rounds; the request set passed to the next round is TAA's accepted
// set, so the loop converges in at most K rounds.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
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
	// Workers bounds the goroutines used for MAA's independent
	// roundings and the greedy-seed sweeps (<=1 means sequential).
	// Results are bit-identical for every value: all randomness is
	// pre-drawn before fan-out and ties break deterministically.
	Workers int
	// LP configures all relaxation solves.
	LP lp.Options
	// Seed drives MAA's randomized rounding.
	Seed int64
	// ColdLP disables the round-to-round LP reuse: every round rebuilds
	// its relaxations on a fresh sub-instance and solves them cold,
	// restoring the pre-warm-start behavior bit-for-bit. By default the
	// BL-SPM LP is built once per run, its first solve starts from MAA's
	// routing, and each later round applies only its subset/capacity
	// delta, warm-starting from the previous round's simplex basis,
	// while MAA's RL-SPM relaxation (whose vertex the
	// rounding consumes) is reused only when a stalled round repeats the
	// exact accepted set — see the model-construction comment in Solve.
	ColdLP bool
	// Tracer, when non-nil, receives the structured solve timeline: one
	// "metis.round" span per alternation round (its "bl_start" field says
	// whether the round's BL-SPM solve finished "seeded", "warm" or
	// "cold"), a "metis.solve" span for
	// the whole run, and — unless LP.Tracer is set separately — every
	// stage's spans ("lp.solve", "maa.solve", "taa.solve") beneath them.
	// Nil (the default) disables tracing with zero overhead.
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
// The context is threaded into every stage beneath (unless LP.Ctx is
// already set, which then wins), so a round blocked inside a large
// simplex solve still stops within one iteration batch.
func SolveCtx(ctx context.Context, inst *sched.Instance, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if inst.NumRequests() == 0 {
		return nil, ErrNoRequests
	}
	// Thread the context into every stage: MAA, TAA and the incremental
	// BL model all read cfg.LP.Ctx (the model captures it at build time).
	if cfg.LP.Ctx == nil {
		cfg.LP.Ctx = ctx
	}
	if err := solvectx.Err(cfg.LP.Ctx); err != nil {
		cCanceled.Inc()
		return nil, fmt.Errorf("core: %w", err)
	}
	// Thread the run tracer into every stage beneath (LP, MAA, TAA all
	// read it from the LP options); an explicitly set LP.Tracer wins.
	if cfg.LP.Tracer == nil {
		cfg.LP.Tracer = cfg.Tracer
	}
	start := time.Now()
	rng := stats.NewRNG(cfg.Seed)

	// SP Updater state: profit starts at zero (accept nothing, buy
	// nothing); any schedule must beat it to be recorded. A cheap
	// bottom-up greedy seeds the updater so that sparse workloads —
	// where the accept-everything starting point is deeply unprofitable
	// and θ rounds of alternation cannot reach the profitable core —
	// still produce a sensible schedule.
	best := sched.NewSchedule(inst)
	bestProfit := 0.0
	var loadsBuf [][]float64 // scratch reused by every pruning pass
	greedySeed := greedyProfitCandidate(inst, cfg.Workers)
	greedyProfit, loadsBuf := pruneUnprofitable(greedySeed, loadsBuf)
	if greedyProfit > bestProfit {
		best, bestProfit = greedySeed, greedyProfit
	}

	// Indices (into inst) of the currently accepted request set.
	accepted := make([]int, inst.NumRequests())
	for i := range accepted {
		accepted[i] = i
	}

	// Incremental BL relaxation model: the BL-SPM LP is built once over
	// the full instance; round 1 starts it from MAA's routing, and each
	// later round applies the accepted subset and the shrunk capacities
	// as bound/rhs deltas and warm-starts from the previous round's basis
	// instead of rebuilding and solving cold. The warm contract pins the
	// optimal objective, not the vertex: a seeded or warm solve may land
	// on another optimal vertex (the seeded one usually does), and TAA's
	// derandomized Chernoff walk reads X, so its decisions can differ
	// from the cold path's. Measured, they are the same in practice
	// (profit moved on 2 of 1760 sampled B4 instances, both K=100, by
	// about 1%), and the warm ≡ ColdLP parity tests gate every figure on
	// it.
	//
	// MAA deliberately gets no such model: randomized rounding consumes
	// the vertex itself — every fractional coordinate shifts the path
	// picks — and these relaxations are massively degenerate, so a warm
	// solve is free to return a different optimal vertex and silently
	// change the rounded schedule. MAA's relaxation therefore always
	// comes from the cold solve of the round's sub-instance. What *is*
	// reused there, bit for bit, is the previous round's relaxation
	// whenever TAA declined nothing: the accepted set, and hence the
	// RL-SPM LP, is then identical (RL-SPM depends only on the request
	// set, not on capacities).
	var blModel *spm.BLModel
	if !cfg.ColdLP {
		var err error
		if blModel, err = spm.NewBLModel(inst, cfg.LP); err != nil {
			return nil, fmt.Errorf("core: build BL model: %w", err)
		}
	}
	var (
		lastAccepted []int
		lastRel      *spm.RelaxedRL
	)

	// Degradation state: when the context expires mid-run, the loop
	// breaks at the next checkpoint and the solve returns the best
	// incumbent with Degraded set instead of an error.
	var cause error

	var rounds []RoundStats
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
		sub, err := inst.Subset(accepted)
		if err != nil {
			return nil, fmt.Errorf("core: round %d: %w", round, err)
		}

		// RL-SPM Solver.
		maaOpts := maa.Options{LP: cfg.LP, Rounds: cfg.MAARounds, RNG: rng, Workers: cfg.Workers}
		if !cfg.ColdLP && lastRel != nil && equalInts(lastAccepted, accepted) {
			// Identical accepted set ⇒ identical RL-SPM LP ⇒ the cold
			// solve would reproduce last round's relaxation bit for bit;
			// skip it.
			maaOpts.Relaxed = lastRel
		}
		maaRes, err := maa.Solve(sub, maaOpts)
		if err != nil {
			if solvectx.Is(err) {
				cause = fmt.Errorf("core: round %d: %w", round, err)
				break
			}
			return nil, fmt.Errorf("core: round %d: %w", round, err)
		}
		lastAccepted = append(lastAccepted[:0], accepted...)
		lastRel = maaRes.Relaxed
		maaSched := liftSchedule(inst, accepted, maaRes.Schedule)
		var maaProfit float64
		maaProfit, loadsBuf = pruneUnprofitable(maaSched, loadsBuf)
		if fault.Active() {
			// Fault site: a poisoned profit must never displace the
			// incumbent (NaN fails every > comparison below).
			maaProfit = fault.NaN("core.profit", maaProfit)
		}
		if maaProfit > bestProfit {
			best, bestProfit = maaSched, maaProfit
		}
		maaElapsed := time.Since(roundStart)

		// BW Limiter (rule τ): shrink the least-utilized charged link.
		// While rounds stall (TAA declines nothing, so the next round
		// would repeat), the shrink escalates exponentially — the
		// alternation needs accumulated scarcity before BL-SPM starts
		// trading requests for bandwidth.
		caps := maaRes.Charged
		step := cfg.TauStep << uint(min(stall, 20))
		var shrinkLink, shrinkStep int
		shrinkLink, shrinkStep, loadsBuf = shrinkLeastUtilized(maaRes.Schedule, caps, step, cfg.TauFrac, loadsBuf)

		// BL-SPM Solver. The model's first solve starts from MAA's
		// routing: TAA's LP is then one shrunk link away from a basis
		// already in hand (see BLModel.Seed). Later rounds warm-start
		// from the previous round's basis, and Seed is a no-op.
		taaStart := time.Now()
		taaOpts := taa.Options{LP: cfg.LP}
		blStart := "cold"
		if blModel != nil {
			seeded := blModel.Seed(accepted, maaRes.Schedule)
			rel, err := blModel.SolveSubset(accepted, caps)
			if err != nil {
				if solvectx.Is(err) {
					cause = fmt.Errorf("core: round %d: %w", round, err)
					break
				}
				return nil, fmt.Errorf("core: round %d: %w", round, err)
			}
			taaOpts.Relaxed = rel
			switch {
			case rel.Warm && seeded:
				blStart = "seeded"
			case rel.Warm:
				blStart = "warm"
			}
		}
		taaRes, err := taa.Solve(sub, caps, taaOpts)
		if err != nil {
			if solvectx.Is(err) {
				cause = fmt.Errorf("core: round %d: %w", round, err)
				break
			}
			return nil, fmt.Errorf("core: round %d: %w", round, err)
		}
		taaSched := liftSchedule(inst, accepted, taaRes.Schedule)
		var taaProfit float64
		taaProfit, loadsBuf = pruneUnprofitable(taaSched, loadsBuf)
		if taaProfit > bestProfit {
			best, bestProfit = taaSched, taaProfit
		}

		// The next round's request set is TAA's acceptance decision
		// after pruning (taaSched lives on the original instance).
		next := taaSched.Accepted()
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
				"warm_lp":      blModel != nil,
				"bl_start":     blStart,
			})
		}
		if len(next) == len(accepted) {
			stall++
			cStallRounds.Inc()
		} else {
			stall = 0
		}
		accepted = next
	}
	cSolves.Inc()
	cRounds.Add(int64(len(rounds)))
	if cause != nil {
		cDegraded.Inc()
		gRoundsAtExpiry.Set(int64(len(rounds)))
	}

	// One loads pass backs Cost and Charged both (Revenue never looks
	// at loads), instead of recomputing the matrix per accessor.
	loadsBuf = best.LoadsInto(loadsBuf)
	charged := sched.ChargedOf(loadsBuf)
	if cfg.Tracer != nil {
		fields := obs.Fields{
			"k":        inst.NumRequests(),
			"rounds":   len(rounds),
			"accepted": best.NumAccepted(),
			"profit":   bestProfit,
			"warm_lp":  blModel != nil,
		}
		if cause != nil {
			fields["degraded"] = true
		}
		obs.Span(cfg.Tracer, "metis.solve", start, fields)
	}
	return &Result{
		Schedule: best,
		Profit:   bestProfit,
		Revenue:  best.Revenue(),
		Cost:     best.CostOfCharged(charged),
		Charged:  charged,
		Rounds:   rounds,
		Elapsed:  time.Since(start),
		Degraded: cause != nil,
		Cause:    cause,
	}, nil
}

// liftSchedule maps a schedule over a Subset instance back onto the
// original instance: sub request k corresponds to inst request
// mapping[k], and candidate path indices coincide by construction.
func liftSchedule(inst *sched.Instance, mapping []int, sub *sched.Schedule) *sched.Schedule {
	s := sched.NewSchedule(inst)
	for k, orig := range mapping {
		if c := sub.Choice(k); c != sched.Declined {
			// Assign cannot fail: path sets are shared with the subset.
			if err := s.Assign(orig, c); err != nil {
				panic("core: lift schedule: " + err.Error())
			}
		}
	}
	return s
}

// greedyProfitCandidate builds a bottom-up schedule: requests are
// accepted on the candidate path with the lowest marginal purchase
// cost iff their value exceeds that marginal cost, sweeping repeatedly
// so that headroom created by earlier acceptances admits later
// requests. Two orderings are tried — descending value (big buyers
// create reusable pools) and descending markup (most profitable
// first) — and the better schedule wins. With workers > 1 the two
// sweeps run concurrently; each sweep only reads the immutable
// instance and owns all state it mutates, and the winner rule
// (markup must be strictly better) is evaluated after both finish, so
// the result is identical either way.
func greedyProfitCandidate(inst *sched.Instance, workers int) *sched.Schedule {
	slots := inst.Slots()
	byValue := make([]int, inst.NumRequests())
	byMarkup := make([]int, inst.NumRequests())
	markup := make([]float64, inst.NumRequests())
	for i := range byValue {
		byValue[i] = i
		byMarkup[i] = i
		r := inst.Request(i)
		amortized := r.Rate * float64(r.Duration()) / float64(slots) * inst.Path(i, 0).Price
		markup[i] = r.Value / amortized
	}
	sort.SliceStable(byValue, func(a, b int) bool {
		return inst.Request(byValue[a]).Value > inst.Request(byValue[b]).Value
	})
	sort.SliceStable(byMarkup, func(a, b int) bool { return markup[byMarkup[a]] > markup[byMarkup[b]] })

	var best, alt *sched.Schedule
	if workers > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			alt = greedySweep(inst, byMarkup)
		}()
		best = greedySweep(inst, byValue)
		wg.Wait()
	} else {
		best = greedySweep(inst, byValue)
		alt = greedySweep(inst, byMarkup)
	}
	if alt.Profit() > best.Profit() {
		best = alt
	}
	return best
}

// greedySweep runs marginal-cost admission over the given order until a
// fixpoint (bounded sweeps).
func greedySweep(inst *sched.Instance, order []int) *sched.Schedule {
	net := inst.Network()
	slots := inst.Slots()
	loads := make([][]float64, net.NumLinks())
	for e := range loads {
		loads[e] = make([]float64, slots)
	}
	charged := make([]int, net.NumLinks())
	s := sched.NewSchedule(inst)
	greedyAdmit(s, loads, charged, order)
	return s
}

// pruneUnprofitable is the SP Updater's local-improvement step: it
// repeatedly declines any served request whose value is below the
// bandwidth cost its removal frees up (whole charged units only — the
// integer billing granularity is exactly why single removals rarely
// pay, and why candidates are retried until a fixpoint). Requests are
// tried in ascending value order. It returns the schedule's profit
// after pruning.
//
// buf is an optional per-link load scratch matrix; the pruner runs
// twice per alternation round, so reusing it across calls removes the
// dominant allocation of the round loop. The (possibly re-shaped)
// buffer is returned for the next call. Every load matrix it consumes
// is recomputed fresh via LoadsInto, so the profit is bit-identical to
// the allocate-per-call version.
func pruneUnprofitable(s *sched.Schedule, buf [][]float64) (float64, [][]float64) {
	inst := s.Instance()
	net := inst.Network()
	slots := inst.Slots()
	loads := s.LoadsInto(buf)

	order := s.Accepted()
	sort.Slice(order, func(a, b int) bool {
		return inst.Request(order[a]).Value < inst.Request(order[b]).Value
	})

	for pass := 0; pass < 16; pass++ {
		improved := false
		for _, i := range order {
			c := s.Choice(i)
			if c == sched.Declined {
				continue
			}
			r := inst.Request(i)
			// Cost saved by removing i: per path link, units between
			// ceil(peak) and ceil(peak without i).
			var saved float64
			for _, e := range inst.Path(i, c).Links {
				var peak, peakWithout float64
				for t := 0; t < slots; t++ {
					v := loads[e][t]
					if v > peak {
						peak = v
					}
					if r.ActiveAt(t) {
						v -= r.Rate
					}
					if v > peakWithout {
						peakWithout = v
					}
				}
				units := sched.CeilUnits(peak) - sched.CeilUnits(peakWithout)
				if units > 0 {
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
	loads = s.LoadsInto(loads)
	return s.Revenue() - s.CostWithLoads(loads), loads
}

// shrinkLeastUtilized implements the τ rule: reduce the capacity of the
// link with the minimum average utilization among links with positive
// capacity, by max(step, ceil(frac·units)) units. Ties break toward the
// lower link id. buf is the round loop's load scratch matrix (see
// pruneUnprofitable). It returns the shrunk link id (-1 when no link
// has positive capacity), the number of units actually removed, and the
// refilled load matrix for the next use.
func shrinkLeastUtilized(s *sched.Schedule, caps []int, step int, frac float64, buf [][]float64) (int, int, [][]float64) {
	loads := s.LoadsInto(buf)
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
		return -1, 0, loads
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
	return target, step, loads
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
