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

// warmVector encodes a schedule as a MILP point over the given routing
// and bandwidth columns.
func warmVector(n int, inst *sched.Instance, xCols [][]int, cCols []int, s *sched.Schedule) []float64 {
	x := make([]float64, n)
	for i := range xCols {
		if c := s.Choice(i); c != sched.Declined {
			x[xCols[i][c]] = 1
		}
	}
	for e, units := range s.ChargedBandwidth() {
		x[cCols[e]] = float64(units)
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
	net := inst.Network()
	p := lp.NewProblem(lp.Maximize)

	xCols, err := addRoutingVars(p, inst)
	if err != nil {
		return nil, err
	}
	cCols := make([]int, net.NumLinks())
	for e := range cCols {
		cCols[e], err = p.AddVariable(-net.Link(e).Price, 0, math.Inf(1), "c")
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < inst.NumRequests(); i++ {
		row, err := p.AddConstraint(lp.LE, 1, "accept")
		if err != nil {
			return nil, err
		}
		for j := range xCols[i] {
			if err := p.AddTerm(row, xCols[i][j], 1); err != nil {
				return nil, err
			}
		}
	}
	if _, err := addCapacityRows(p, inst, xCols,
		func(e int) int { return cCols[e] },
		func(e, t int) float64 { return 0 },
	); err != nil {
		return nil, err
	}

	intCols := collectIntCols(xCols, cCols)
	var warm []float64
	if opts.Warm != nil {
		warm = warmVector(p.NumVariables(), inst, xCols, cCols, opts.Warm)
	}
	sol, err := mip.Solve(p, lp.Maximize, intCols, mip.Options{LP: opts.LP, MaxNodes: opts.MaxNodes, WarmStart: warm})
	if err != nil {
		return nil, err
	}
	if sol.Status == mip.StatusLimit {
		// No incumbent before the limit; the empty schedule (accept
		// nothing, buy nothing, profit 0) is always feasible for SPM.
		return &ExactResult{
			Schedule:  sched.NewSchedule(inst),
			Objective: 0,
			Proven:    false,
			Gap:       math.Abs(sol.Bound),
			Nodes:     sol.Nodes,
			Status:    sol.Status,
			Canceled:  sol.Canceled,
		}, nil
	}
	return decodeExact(inst, xCols, sol, "OPT(SPM)", opts.LP.Ctx)
}

// SolveExactRL solves the exact RL-SPM MILP — the paper's OPT(RL-SPM)
// reference: serve every request with integral routing and integer
// bandwidth at minimum cost.
func SolveExactRL(inst *sched.Instance, opts ExactOptions) (*ExactResult, error) {
	p := new(lp.Problem)
	defer p.Release()
	var b rlBuild
	if err := b.build(p, inst); err != nil {
		return nil, err
	}
	xCols, cCols := rlColumns(inst)

	intCols := collectIntCols(xCols, cCols)
	var warm []float64
	if opts.Warm != nil {
		warm = warmVector(p.NumVariables(), inst, xCols, cCols, opts.Warm)
	}
	sol, err := mip.Solve(p, lp.Minimize, intCols, mip.Options{LP: opts.LP, MaxNodes: opts.MaxNodes, WarmStart: warm})
	if err != nil {
		return nil, err
	}
	return decodeExact(inst, xCols, sol, "OPT(RL-SPM)", opts.LP.Ctx)
}

// SolveExactBL solves the exact BL-SPM MILP: maximize revenue under
// fixed integer link capacities with integral acceptance/routing. It is
// the reference optimum for TAA.
func SolveExactBL(inst *sched.Instance, caps []int, opts ExactOptions) (*ExactResult, error) {
	if len(caps) != inst.Network().NumLinks() {
		return nil, fmt.Errorf("spm: capacity vector has %d entries, want %d", len(caps), inst.Network().NumLinks())
	}
	p := lp.NewProblem(lp.Maximize)

	xCols, err := addRoutingVars(p, inst)
	if err != nil {
		return nil, err
	}
	for i := 0; i < inst.NumRequests(); i++ {
		row, err := p.AddConstraint(lp.LE, 1, "accept")
		if err != nil {
			return nil, err
		}
		for j := range xCols[i] {
			if err := p.AddTerm(row, xCols[i][j], 1); err != nil {
				return nil, err
			}
		}
	}
	if _, err := addCapacityRows(p, inst, xCols,
		func(e int) int { return -1 },
		func(e, t int) float64 { return float64(caps[e]) },
	); err != nil {
		return nil, err
	}

	var intCols []int
	for i := range xCols {
		intCols = append(intCols, xCols[i]...)
	}
	var warm []float64
	if opts.Warm != nil {
		warm = make([]float64, p.NumVariables())
		for i := range xCols {
			if c := opts.Warm.Choice(i); c != sched.Declined {
				warm[xCols[i][c]] = 1
			}
		}
	}
	sol, err := mip.Solve(p, lp.Maximize, intCols, mip.Options{LP: opts.LP, MaxNodes: opts.MaxNodes, WarmStart: warm})
	if err != nil {
		return nil, err
	}
	if sol.Status == mip.StatusLimit {
		// Declining everything is always feasible for BL-SPM.
		return &ExactResult{
			Schedule: sched.NewSchedule(inst),
			Gap:      math.Abs(sol.Bound),
			Nodes:    sol.Nodes,
			Status:   sol.Status,
			Canceled: sol.Canceled,
		}, nil
	}
	return decodeExact(inst, xCols, sol, "OPT(BL-SPM)", opts.LP.Ctx)
}

func collectIntCols(xCols [][]int, cCols []int) []int {
	var intCols []int
	for i := range xCols {
		intCols = append(intCols, xCols[i]...)
	}
	intCols = append(intCols, cCols...)
	return intCols
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
