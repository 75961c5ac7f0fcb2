// Package opt exposes the exact reference solutions of the paper's
// evaluation — OPT(SPM) and OPT(RL-SPM) — as evaluation-friendly
// wrappers over the internal/spm MILP builders. Both are anytime:
// stopped by a node budget or the caller's context they return the best
// incumbent and whether optimality was proven.
package opt

import (
	"context"
	"time"

	"metis/internal/core"
	"metis/internal/lp"
	"metis/internal/maa"
	"metis/internal/sched"
	"metis/internal/spm"
	"metis/internal/stats"
)

// Result is an exact-solver outcome plus the derived evaluation metrics.
type Result struct {
	// Schedule is the incumbent schedule.
	Schedule *sched.Schedule
	// Profit, Revenue, Cost summarize Schedule.
	Profit, Revenue, Cost float64
	// Accepted is the number of served requests.
	Accepted int
	// Proven reports whether the incumbent is a proven optimum.
	Proven bool
	// Gap is the relative optimality gap when Proven is false.
	Gap float64
	// Nodes is the number of branch & bound nodes explored.
	Nodes int
	// Status is the branch & bound outcome ("optimal", "feasible", ...).
	Status string
	// Elapsed is the solver wall time.
	Elapsed time.Duration
	// Canceled reports that the context cut the branch & bound search
	// short; the incumbent is still the best schedule found (for SPM at
	// worst the warm start or the empty schedule).
	Canceled bool
}

// SPM computes OPT(SPM): the profit-maximal acceptance, routing and
// integer bandwidth purchase. The branch & bound search stops for one
// of two reasons: maxNodes explored nodes (0 = mip's default) or ctx
// expiring (nil = never). Under a node budget the result depends only
// on the instance, so figures built on it are repeatable; a ctx expiry
// keeps the anytime contract (the incumbent so far, Canceled set).
//
// warm seeds the search, so the result is never worse than it (e.g.
// the Metis schedule an experiment compares against, which keeps the
// OPT(SPM) line above the Metis line by construction). A nil warm
// seeds it with a Metis solve under the same ctx.
func SPM(ctx context.Context, inst *sched.Instance, maxNodes int, warm *sched.Schedule) (*Result, error) {
	if warm == nil {
		if m, err := core.SolveCtx(ctx, inst, core.Config{Theta: 6, MAARounds: 3, Seed: 1}); err == nil {
			warm = m.Schedule
		}
	}
	start := time.Now()
	res, err := spm.SolveExactSPM(inst, spm.ExactOptions{LP: lp.Options{Ctx: ctx}, MaxNodes: maxNodes, Warm: warm})
	if err != nil {
		return nil, err
	}
	return wrap(res, start), nil
}

// RLSPM computes OPT(RL-SPM): the cost-minimal schedule that serves
// every request (the paper's "accept everything" mode), under the same
// two stops as SPM. The search is warm-started with a best-of-several
// MAA rounding, so a budgeted result is never worse than the MAA
// heuristic. RL-SPM must serve every request, so unlike SPM there is no
// always-feasible fallback: with a warm MAA incumbent a ctx expiry
// degrades to it (Canceled set); without one the call returns an error
// matching solvectx.ErrCanceled/ErrDeadline.
func RLSPM(ctx context.Context, inst *sched.Instance, maxNodes int) (*Result, error) {
	start := time.Now()
	var warm *sched.Schedule
	if m, err := maa.Solve(inst, maa.Options{LP: lp.Options{Ctx: ctx}, RNG: stats.NewRNG(1), Rounds: 20}); err == nil {
		warm = m.Schedule
	}
	res, err := spm.SolveExactRL(inst, spm.ExactOptions{LP: lp.Options{Ctx: ctx}, MaxNodes: maxNodes, Warm: warm})
	if err != nil {
		return nil, err
	}
	return wrap(res, start), nil
}

func wrap(res *spm.ExactResult, start time.Time) *Result {
	s := res.Schedule
	return &Result{
		Schedule: s,
		Profit:   s.Profit(),
		Revenue:  s.Revenue(),
		Cost:     s.Cost(),
		Accepted: s.NumAccepted(),
		Proven:   res.Proven,
		Gap:      res.Gap,
		Nodes:    res.Nodes,
		Status:   res.Status.String(),
		Elapsed:  time.Since(start),
		Canceled: res.Canceled,
	}
}
