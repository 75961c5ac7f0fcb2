package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"metis/internal/demand"
	"metis/internal/lp"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/spm"
	"metis/internal/taa"
	"metis/internal/wan"
)

// ReplanMode selects the cross-epoch replanning strategy of a Replanner.
type ReplanMode int

const (
	// ReplanIncremental keeps a persistent spm.BLSession across epochs:
	// arrivals fold into the live LP as appended columns, the warm
	// simplex basis survives from replan to replan, and each replan runs
	// one incumbent-refinement round instead of the full alternation.
	ReplanIncremental ReplanMode = iota
	// ReplanColdRefine runs exactly the ReplanIncremental algorithm but
	// rebuilds the BL session from scratch and solves it cold on every
	// replan. It exists as the differential comparator: an incremental
	// and a cold-refine replanner fed the same trace must make identical
	// decisions, which is what the parity tests assert.
	ReplanColdRefine
)

// Replanner is the metis policy's cross-epoch solver state: the
// instance over every request observed this billing cycle (grown by
// Observe), the persistent warm BL session in incremental mode, and
// the most profitable schedule found so far (the incumbent). Replan
// improves the incumbent over whatever arrived since the last call.
//
// The fallback ladder mirrors the LP layer's discipline: any failure of
// the incremental machinery — a session build or extension error, a
// solver bail — drops the persistent model and re-solves the whole
// workload from scratch with SolveCtx; Reset (the cycle wrap) discards
// everything. A Replanner is not safe for concurrent use.
type Replanner struct {
	cfg   Config
	mode  ReplanMode
	net   *wan.Network
	slots int
	paths int

	inst      *sched.Instance
	sess      *spm.BLSession  // incremental mode only
	incumbent *sched.Schedule // best schedule over inst; nil before the first replan
	profit    float64
	charged   []int
	planned   int // requests observed at the last completed replan
	loadsBuf  [][]float64
	relX      [][]float64 // last BL relaxation's fractional X, aligned to observed positions
}

// NewReplanner builds an empty replanner for one billing cycle of slots
// slots on net. pathsPerRequest sizes candidate path sets for observed
// requests (≤0 means sched.DefaultPathsPerRequest).
func NewReplanner(net *wan.Network, slots int, pathsPerRequest int, cfg Config, mode ReplanMode) *Replanner {
	if pathsPerRequest <= 0 {
		pathsPerRequest = sched.DefaultPathsPerRequest
	}
	return &Replanner{cfg: cfg, mode: mode, net: net, slots: slots, paths: pathsPerRequest}
}

// Reset drops all cycle-scoped state: the observed workload, the
// persistent session and its warm basis, and the incumbent. The serve
// layer calls it when the billing cycle wraps.
func (rp *Replanner) Reset() {
	rp.inst, rp.sess, rp.incumbent = nil, nil, nil
	rp.profit, rp.charged, rp.planned = 0, nil, 0
	rp.relX = nil
}

// Observe folds newly arrived requests into the observed workload. In
// incremental mode the persistent session absorbs them as appended
// columns; a session extension failure falls back to a cold rebuild at
// the next replan rather than failing the epoch.
func (rp *Replanner) Observe(reqs []demand.Request) error {
	if len(reqs) == 0 {
		return nil
	}
	var err error
	if rp.inst == nil {
		rp.inst, err = sched.NewInstance(rp.net, rp.slots, reqs, rp.paths)
	} else {
		rp.inst, err = rp.inst.Extend(reqs, rp.paths)
	}
	if err != nil {
		return fmt.Errorf("core: replanner observe: %w", err)
	}
	if rp.sess != nil {
		if err := rp.sess.Extend(rp.inst); err != nil {
			cReplanFallbacks.Inc()
			rp.sess = nil
		}
	}
	return nil
}

// NumObserved returns the number of requests observed this cycle.
func (rp *Replanner) NumObserved() int {
	if rp.inst == nil {
		return 0
	}
	return rp.inst.NumRequests()
}

// NumPlanned returns the number of observed requests covered by the
// last completed replan; NumObserved() > NumPlanned() means a replan
// has new work.
func (rp *Replanner) NumPlanned() int { return rp.planned }

// Observed returns a copy of the observed workload: the state a
// recovered policy must reproduce (serve's recovery tests compare it).
func (rp *Replanner) Observed() []demand.Request {
	if rp.inst == nil {
		return nil
	}
	return rp.inst.Requests()
}

// RelaxedGuide returns the last BL relaxation's fractional path weights
// for observed positions [from, NumObserved()): entry k guides observed
// request from+k, and is nil for positions the relaxation has not
// covered yet (newly observed since the last refinement, or every
// request after a fallback SolveCtx, which solves no refinement
// relaxation).
// The guide is a heuristic input — consumers must stay correct with
// stale, partial or all-nil weights. It is exactly what taa.SolveVar
// accepts as a pre-solved relaxation, which lets the serve layer's
// admission pass skip its per-batch LP: the persistent model has
// already priced every observed request against the cycle plan.
func (rp *Replanner) RelaxedGuide(from int) [][]float64 {
	n := rp.NumObserved()
	if rp.relX == nil || from < 0 || from > n {
		return nil
	}
	out := make([][]float64, n-from)
	for k := range out {
		if i := from + k; i < len(rp.relX) {
			out[k] = append([]float64(nil), rp.relX[i]...)
		}
	}
	return out
}

// Replan improves the incumbent over the workload observed so far and
// returns it as a Result (Charged is the capacity plan). Each call runs
// one refinement round — greedy extension of the incumbent over
// newcomers, a BL relaxation solve under the extension's purchase, TAA
// admission, pruning — and keeps the most profitable of incumbent,
// extension and TAA schedule. A context expiry mid-refinement returns
// the best of what had finished with Result.Degraded set, mirroring
// SolveCtx's degradation contract; the incumbent never regresses. Any
// other failure of the round falls back to a full SolveCtx.
func (rp *Replanner) Replan(ctx context.Context) (*Result, error) {
	if rp.inst == nil || rp.inst.NumRequests() == 0 {
		return nil, ErrNoRequests
	}
	cReplanRefines.Inc()
	res, err := rp.refine(ctx)
	if err != nil {
		if solvectx.Is(err) {
			return nil, err
		}
		// Fallback ladder: the incremental machinery failed (session
		// build, LP error); drop the persistent model and re-solve the
		// whole workload from scratch.
		cReplanFallbacks.Inc()
		rp.sess = nil
		res, err = SolveCtx(ctx, rp.inst, rp.cfg)
		if err != nil {
			return nil, err
		}
	}
	rp.adopt(res.Schedule, res.Profit, res.Charged)
	return res, nil
}

// refine runs one refinement round. Non-context errors bubble up for
// the caller's fallback; context expiries degrade to the best schedule
// computed so far.
func (rp *Replanner) refine(ctx context.Context) (*Result, error) {
	start := time.Now()
	cfg := rp.cfg.withDefaults()
	lpOpts := cfg.LP
	if lpOpts.Ctx == nil {
		lpOpts.Ctx = ctx
	}
	inst := rp.inst

	// Carry the incumbent onto the (possibly extended) instance; path
	// sets are shared by Instance.Extend, so prefix choices stay valid.
	inc := rp.liftIncumbent()
	incProfit, buf := pruneUnprofitable(inc, rp.loadsBuf)

	// Greedy extension: admit declined requests on their cheapest
	// marginal path on top of the incumbent's committed loads. On the
	// first replan of a cycle this degenerates to the full greedy seed.
	var ext *sched.Schedule
	if rp.incumbent == nil {
		ext = greedyProfitCandidate(inst, cfg.Workers)
	} else {
		ext = inc.Clone()
		buf = greedyExtend(ext, buf)
	}
	var extProfit float64
	extProfit, buf = pruneUnprofitable(ext, buf)

	best, bestProfit := inc, incProfit
	if extProfit > bestProfit {
		best, bestProfit = ext, extProfit
	}
	if err := solvectx.Err(lpOpts.Ctx); err != nil {
		return rp.finish(start, best, bestProfit, buf, err), nil
	}

	// Capacity target for this round: what the greedy extension
	// purchases. TAA then maximizes revenue under that budget, possibly
	// trading low-value requests away.
	buf = ext.LoadsInto(buf)
	caps := sched.ChargedOf(buf)

	rel, err := rp.relax(lpOpts, caps)
	if err != nil {
		if solvectx.Is(err) {
			return rp.finish(start, best, bestProfit, buf, err), nil
		}
		return nil, err
	}
	rp.relX = rel.X
	// Thread the round's ctx into the TAA stage too: with the relaxation
	// pre-solved the estimator walk is the remaining unbounded cost, and
	// an expiry there must degrade to the incumbent, not overshoot the
	// replan's budget share.
	taaRes, err := taa.Solve(inst, caps, taa.Options{LP: lpOpts, Relaxed: rel, Ctx: lpOpts.Ctx})
	if err != nil {
		if solvectx.Is(err) {
			return rp.finish(start, best, bestProfit, buf, err), nil
		}
		return nil, err
	}
	var taaProfit float64
	taaProfit, buf = pruneUnprofitable(taaRes.Schedule, buf)
	if taaProfit > bestProfit {
		best, bestProfit = taaRes.Schedule, taaProfit
	}
	return rp.finish(start, best, bestProfit, buf, nil), nil
}

// relax solves the BL relaxation over the whole observed workload
// under caps — warm on the persistent session in incremental mode, cold
// on a fresh session in the comparator mode. The two return the same
// relaxation, which is what keeps the modes' decisions equal: both build
// the bit-identical model, its index-keyed tie-break makes the optimum
// unique, and a warm optimum that is still ambiguous takes the session's
// counted cold re-solve rung.
func (rp *Replanner) relax(opts lp.Options, caps []int) (*spm.RelaxedBL, error) {
	all := make([]int, rp.inst.NumRequests())
	for i := range all {
		all[i] = i
	}
	if rp.mode == ReplanColdRefine {
		sess, err := spm.NewBLSession(rp.inst, opts)
		if err != nil {
			return nil, err
		}
		return sess.SolveSubset(all, caps)
	}
	if rp.sess == nil {
		sess, err := spm.NewBLSession(rp.inst, opts)
		if err != nil {
			return nil, err
		}
		rp.sess = sess
	}
	rp.sess.SetOptions(opts)
	return rp.sess.SolveSubset(all, caps)
}

func (rp *Replanner) liftIncumbent() *sched.Schedule {
	s := sched.NewSchedule(rp.inst)
	if rp.incumbent == nil {
		return s
	}
	n := rp.incumbent.Instance().NumRequests()
	for i := 0; i < n; i++ {
		if c := rp.incumbent.Choice(i); c != sched.Declined {
			// Cannot fail: Extend shares the prefix path sets.
			if err := s.Assign(i, c); err != nil {
				panic("core: lift incumbent: " + err.Error())
			}
		}
	}
	return s
}

func (rp *Replanner) adopt(s *sched.Schedule, profit float64, charged []int) {
	rp.incumbent, rp.profit = s, profit
	rp.charged = append(rp.charged[:0], charged...)
	rp.planned = rp.inst.NumRequests()
}

func (rp *Replanner) finish(start time.Time, best *sched.Schedule, profit float64, buf [][]float64, cause error) *Result {
	rp.loadsBuf = best.LoadsInto(buf)
	charged := sched.ChargedOf(rp.loadsBuf)
	res := &Result{
		Schedule: best,
		Profit:   profit,
		Revenue:  best.Revenue(),
		Cost:     best.CostOfCharged(charged),
		Charged:  charged,
		Elapsed:  time.Since(start),
	}
	if cause != nil {
		res.Degraded, res.Cause = true, cause
	}
	return res
}

// greedyExtend admits currently declined requests on top of an existing
// schedule with the greedySweep marginal-cost rule, seeded with the
// schedule's committed loads and purchases. Candidates are tried in
// descending value order. It mutates s and returns the (re-shaped) load
// scratch for reuse.
func greedyExtend(s *sched.Schedule, buf [][]float64) [][]float64 {
	inst := s.Instance()
	loads := s.LoadsInto(buf)
	charged := sched.ChargedOf(loads)
	order := make([]int, 0, inst.NumRequests())
	for i := 0; i < inst.NumRequests(); i++ {
		if s.Choice(i) == sched.Declined {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return inst.Request(order[a]).Value > inst.Request(order[b]).Value
	})
	greedyAdmit(s, loads, charged, order)
	return loads
}

// greedyAdmit runs marginal-cost admission sweeps over order until a
// fixpoint (bounded passes), mutating the schedule and the seeded
// loads/charged state in place.
func greedyAdmit(s *sched.Schedule, loads [][]float64, charged []int, order []int) {
	inst := s.Instance()
	net := inst.Network()
	for pass := 0; pass < 4; pass++ {
		added := false
		for _, i := range order {
			if s.Choice(i) != sched.Declined {
				continue
			}
			r := inst.Request(i)
			bestPath, bestCost := -1, math.Inf(1)
			for j := 0; j < inst.NumPaths(i); j++ {
				var cost float64
				for _, e := range inst.Path(i, j).Links {
					var peak float64
					for t := r.Start; t <= r.End; t++ {
						if v := loads[e][t] + r.Rate; v > peak {
							peak = v
						}
					}
					if c := sched.CeilUnits(peak); c > charged[e] {
						cost += float64(c-charged[e]) * net.Link(e).Price
					}
				}
				if cost < bestCost {
					bestPath, bestCost = j, cost
				}
			}
			if bestPath == -1 || r.Value <= bestCost {
				continue
			}
			for _, e := range inst.Path(i, bestPath).Links {
				var peak float64
				for t := r.Start; t <= r.End; t++ {
					loads[e][t] += r.Rate
					if loads[e][t] > peak {
						peak = loads[e][t]
					}
				}
				if c := sched.CeilUnits(peak); c > charged[e] {
					charged[e] = c
				}
			}
			if err := s.Assign(i, bestPath); err != nil {
				panic("core: greedy admit: " + err.Error())
			}
			added = true
		}
		if !added {
			break
		}
	}
}
