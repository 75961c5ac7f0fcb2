package spm

import (
	"context"
	"fmt"
	"math"

	"metis/internal/lp"
	"metis/internal/mip"
	"metis/internal/sched"
	"metis/internal/solvectx"
)

// ExactOptions tunes the exact MILP reference solvers.
type ExactOptions struct {
	// LP configures the per-node simplex solves. LP.Ctx, when non-nil,
	// makes the search cancellable (see mip.Options.LP). On expiry the
	// solvers keep their anytime contract where a fallback incumbent
	// exists (OPT(SPM)/OPT(BL-SPM) fall back to the empty schedule or the
	// Warm seed) and set ExactResult.Canceled; OPT(RL-SPM), which has no
	// always-feasible fallback, returns solvectx.ErrCanceled/ErrDeadline
	// instead.
	LP lp.Options
	// MaxNodes bounds the number of branch & bound nodes (0 = default).
	// A budgeted solve returns the best incumbent found ("anytime").
	MaxNodes int
	// Warm optionally seeds branch & bound with a feasible schedule
	// (e.g. a Metis or MAA result), guaranteeing the anytime result is
	// never worse than the heuristic.
	Warm *sched.Schedule
}

// warmVector encodes a schedule as a MILP point over b's last build:
// its routing columns and, when the LP has them, its bandwidth columns.
func warmVector(n int, b *lpBuild, s *sched.Schedule) []float64 {
	x := make([]float64, n)
	for i, cols := range b.xCols {
		if c := s.Choice(i); c != sched.Declined {
			x[cols[c]] = 1
		}
	}
	if n > b.nx {
		for e, units := range s.ChargedBandwidth() {
			x[b.nx+e] = float64(units)
		}
	}
	return x
}

// ExactResult is the outcome of an exact MILP solve.
type ExactResult struct {
	// Schedule is the decoded incumbent.
	Schedule *sched.Schedule
	// Objective is the MILP incumbent objective: service profit for
	// OPT(SPM), bandwidth cost for OPT(RL-SPM).
	Objective float64
	// Proven reports whether the incumbent is a proven optimum (no
	// limit interrupted the search).
	Proven bool
	// Gap is the relative optimality gap when Proven is false.
	Gap float64
	// Nodes is the number of branch & bound nodes explored.
	Nodes int
	// Status is the underlying branch & bound outcome.
	Status mip.Status
	// Canceled reports that ExactOptions.LP.Ctx stopped the search.
	Canceled bool
}

// SolveExactSPM solves the full SPM MILP — the paper's OPT(SPM)
// reference: choose an acceptance set, integral routing, and integer
// bandwidth purchase maximizing revenue minus cost.
func SolveExactSPM(inst *sched.Instance, opts ExactOptions) (*ExactResult, error) {
	return solveExact(inst, spmLP, nil, opts, "OPT(SPM)")
}

// SolveExactRL solves the exact RL-SPM MILP — the paper's OPT(RL-SPM)
// reference: serve every request with integral routing and integer
// bandwidth at minimum cost.
func SolveExactRL(inst *sched.Instance, opts ExactOptions) (*ExactResult, error) {
	return solveExact(inst, rlLP, nil, opts, "OPT(RL-SPM)")
}

// SolveExactBL solves the exact BL-SPM MILP: maximize revenue under
// fixed integer link capacities with integral acceptance/routing. It is
// the reference optimum for TAA.
func SolveExactBL(inst *sched.Instance, caps []int, opts ExactOptions) (*ExactResult, error) {
	if len(caps) != inst.Network().NumLinks() {
		return nil, fmt.Errorf("spm: capacity vector has %d entries, want %d", len(caps), inst.Network().NumLinks())
	}
	return solveExact(inst, blLP, ExpandCaps(inst, caps), opts, "OPT(BL-SPM)")
}

// solveExact builds the LP of the given kind and runs branch & bound
// over it with every column integral.
func solveExact(inst *sched.Instance, kind lpKind, caps [][]float64, opts ExactOptions, what string) (*ExactResult, error) {
	var (
		p lp.Problem
		b lpBuild
	)
	defer p.Release()
	if err := b.build(&p, inst, kind, caps); err != nil {
		return nil, err
	}
	n := p.NumVariables()
	var warm []float64
	if opts.Warm != nil {
		warm = warmVector(n, &b, opts.Warm)
	}
	sense := lp.Maximize
	if kind == rlLP {
		sense = lp.Minimize
	}
	sol, err := mip.Solve(&p, sense, b.cols[:n], mip.Options{LP: opts.LP, MaxNodes: opts.MaxNodes, WarmStart: warm})
	if err != nil {
		return nil, err
	}
	if sol.Status == mip.StatusLimit && kind != rlLP {
		// No incumbent before the limit; the empty schedule (accept
		// nothing, buy nothing, profit 0) is always feasible for SPM and
		// BL-SPM.
		return &ExactResult{
			Schedule: sched.NewSchedule(inst),
			Gap:      math.Abs(sol.Bound),
			Nodes:    sol.Nodes,
			Status:   sol.Status,
			Canceled: sol.Canceled,
		}, nil
	}
	return decodeExact(inst, b.xCols, sol, what, opts.LP.Ctx)
}

func decodeExact(inst *sched.Instance, xCols [][]int, sol *mip.Solution, what string, ctx context.Context) (*ExactResult, error) {
	switch sol.Status {
	case mip.StatusOptimal, mip.StatusFeasible:
	default:
		if sol.Canceled {
			return nil, solvectx.Canceled(ctx)
		}
		return nil, fmt.Errorf("spm: %s: %v", what, sol.Status)
	}
	s := sched.NewSchedule(inst)
	for i := range xCols {
		for j, col := range xCols[i] {
			if sol.X[col] > 0.5 {
				if err := s.Assign(i, j); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	return &ExactResult{
		Schedule:  s,
		Objective: sol.Objective,
		Proven:    sol.Status == mip.StatusOptimal,
		Gap:       sol.Gap,
		Nodes:     sol.Nodes,
		Status:    sol.Status,
		Canceled:  sol.Canceled,
	}, nil
}
