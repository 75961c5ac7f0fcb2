// Package mip implements a branch & bound solver for mixed 0/1-integer
// linear programs on top of the internal/lp simplex. It replaces the
// Gurobi ILP calls of the paper's evaluation (the exact OPT(SPM) and
// OPT(RL-SPM) reference solutions).
//
// The solver is an anytime algorithm: stopped by its node budget or by
// the caller's context, it returns the best incumbent found and the
// remaining optimality gap.
package mip

import (
	"fmt"
	"math"
	"time"

	"metis/internal/lp"
	"metis/internal/obs"
)

// Status is the outcome of a MIP solve.
type Status int

// Solve outcomes.
const (
	// StatusOptimal means the search tree was exhausted; the incumbent
	// is a proven optimum (within tolerance).
	StatusOptimal Status = iota + 1
	// StatusFeasible means the node budget or the context stopped the
	// search with at least one incumbent; Gap bounds its suboptimality.
	StatusFeasible
	// StatusInfeasible means no integer-feasible point exists.
	StatusInfeasible
	// StatusLimit means the node budget or the context stopped the
	// search before any incumbent was found.
	StatusLimit
	// StatusUnbounded means the LP relaxation is unbounded.
	StatusUnbounded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusLimit:
		return "limit"
	case StatusUnbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// intTol is the integrality tolerance: a relaxation value within it of
// an integer counts as integral.
const intTol = 1e-6

// Options tunes the branch & bound search.
type Options struct {
	// LP configures the per-node simplex solves. LP.Ctx, when non-nil,
	// also makes the search cancellable: it is checked between nodes,
	// and on cancellation or ctx deadline the solve keeps its anytime
	// contract — it returns the incumbent (WarmStart included) with
	// Canceled set rather than an error. It is the search's only
	// wall-clock bound.
	LP lp.Options
	// MaxNodes bounds the number of explored nodes (default 200000).
	// It is the search's work budget: a solve stopped by it depends
	// only on the problem and the options, never on the machine.
	MaxNodes int
	// WarmStart optionally seeds the search with a known
	// integer-feasible point (its feasibility is the caller's
	// responsibility). The incumbent and pruning bound start from it,
	// which keeps budgeted or canceled solves from returning nothing
	// and tightens the search.
	WarmStart []float64
	// coldLP disables simplex warm starts: every node's relaxation is
	// solved cold from the all-slack basis, restoring the pre-warm-start
	// behavior exactly. It is the oracle the in-package parity test
	// compares against. By default each child node repairs its parent's
	// optimal basis with dual simplex after the single branching bound
	// flip, which typically takes a handful of pivots instead of a full
	// two-phase solve.
	coldLP bool
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 200000
	}
	return o
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	Objective float64   // incumbent objective (original sense)
	X         []float64 // incumbent point
	Bound     float64   // best proven bound on the optimum (±Inf when none was proven)
	Gap       float64   // |Objective−Bound| / max(1, |Objective|); 0 when optimal, +Inf when no bound
	Nodes     int       // explored nodes
	// Canceled reports that Options.LP.Ctx stopped the search (as
	// opposed to MaxNodes). The Status still describes what the solve
	// has: StatusFeasible with an incumbent, StatusLimit without.
	Canceled bool
}

// Solve optimizes prob with the variables listed in integerCols
// restricted to integer values. The sense must match how prob was
// built; it is needed to orient pruning. Solve mutates prob's variable
// bounds during the search and restores them before returning.
func Solve(prob *lp.Problem, sense lp.Sense, integerCols []int, opts Options) (*Solution, error) {
	var t0 time.Time
	if opts.LP.Tracer != nil {
		t0 = time.Now()
	}
	sol, err := solveBB(prob, sense, integerCols, opts)
	if err != nil {
		return nil, err
	}
	cSolves.Inc()
	cNodes.Add(int64(sol.Nodes))
	if sol.Canceled {
		cCanceled.Inc()
	}
	if opts.LP.Tracer != nil {
		fields := obs.Fields{
			"status": sol.Status.String(),
			"nodes":  sol.Nodes,
		}
		// A boundless solve carries Gap = +Inf, which the JSON trace
		// encoder cannot represent: skip the field.
		if !math.IsInf(sol.Gap, 0) {
			fields["gap"] = sol.Gap
		}
		obs.Span(opts.LP.Tracer, "mip.solve", t0, fields)
	}
	return sol, nil
}

// solveBB is the uninstrumented branch & bound search behind Solve.
func solveBB(prob *lp.Problem, sense lp.Sense, integerCols []int, opts Options) (*Solution, error) {
	o := opts.withDefaults()
	o.LP.Warm = nil // Solve manages warm-start handles per node
	for _, j := range integerCols {
		if j < 0 || j >= prob.NumVariables() {
			return nil, fmt.Errorf("mip: integer column %d out of range", j)
		}
	}
	// Validate the warm start before the root solve: it is the incumbent
	// of last resort when the root LP itself is cut short.
	var warmX []float64
	warmObj := math.NaN()
	if o.WarmStart != nil {
		if len(o.WarmStart) != prob.NumVariables() {
			return nil, fmt.Errorf("mip: warm start has %d values, want %d", len(o.WarmStart), prob.NumVariables())
		}
		warmX = append([]float64(nil), o.WarmStart...)
		warmObj = prob.ObjectiveValue(o.WarmStart)
	}
	// Root relaxation. In warm mode the root solve runs cold but captures
	// its basis; every descendant then dives from its parent's basis.
	// Solve manages Options.LP.Warm itself, overriding any caller value.
	rootOpts := o.LP
	var rootBasis *lp.Basis
	if o.coldLP {
		rootOpts.Warm = nil
	} else {
		rootBasis = lp.NewBasis()
		rootOpts.Warm = rootBasis
	}
	root, err := prob.Solve(rootOpts)
	if err != nil {
		return nil, err
	}
	switch root.Status {
	case lp.StatusInfeasible:
		return &Solution{Status: StatusInfeasible, Nodes: 1}, nil
	case lp.StatusUnbounded:
		return &Solution{Status: StatusUnbounded, Nodes: 1}, nil
	case lp.StatusIterLimit, lp.StatusCanceled:
		// The root relaxation never finished, so no bound was proven.
		// Keep the anytime contract: fall back to the caller's warm start
		// as the incumbent when one exists, with an unbounded gap.
		sol := &Solution{Status: StatusLimit, Nodes: 1, Canceled: root.Status == lp.StatusCanceled}
		if warmX != nil {
			sol.Status = StatusFeasible
			sol.Objective = warmObj
			sol.X = warmX
			if sense == lp.Maximize {
				sol.Bound = math.Inf(1)
			} else {
				sol.Bound = math.Inf(-1)
			}
			sol.Gap = math.Inf(1)
		}
		return sol, nil
	}

	s := &searcher{
		prob:      prob,
		sense:     sense,
		intCols:   integerCols,
		opts:      o,
		rootBound: root.Objective,
		bestObj:   warmObj,
		bestX:     warmX,
	}
	s.branch(root, rootBasis)
	cIncumbents.Add(int64(s.incumbents))
	cPruneBound.Add(int64(s.pruneBound))
	cPruneInfeas.Add(int64(s.pruneInfeas))

	sol := &Solution{
		Bound:    s.rootBound,
		Nodes:    s.nodes,
		Canceled: s.canceled,
	}
	if s.bestX == nil {
		if s.limited {
			sol.Status = StatusLimit
		} else {
			sol.Status = StatusInfeasible
		}
		return sol, nil
	}
	sol.Objective = s.bestObj
	sol.X = s.bestX
	if s.limited {
		sol.Status = StatusFeasible
		sol.Gap = math.Abs(sol.Objective-sol.Bound) / math.Max(1, math.Abs(sol.Objective))
	} else {
		sol.Status = StatusOptimal
		sol.Bound = sol.Objective
	}
	return sol, nil
}

type searcher struct {
	prob    *lp.Problem
	sense   lp.Sense
	intCols []int
	opts    Options

	rootBound float64
	bestObj   float64
	bestX     []float64
	nodes     int
	limited   bool
	canceled  bool

	// instrumentation tallies, flushed to obs counters after the search.
	incumbents  int
	pruneBound  int
	pruneInfeas int
}

// better reports whether a beats b in the problem's sense.
func (s *searcher) better(a, b float64) bool {
	if s.sense == lp.Maximize {
		return a > b
	}
	return a < b
}

// branch recursively explores the subtree rooted at the node whose LP
// relaxation is rel (already solved under the current bounds of s.prob).
// basis is the warm-start handle holding that relaxation's final basis
// (nil in cold mode): the first child dives with a clone so the second
// can reuse the parent basis itself — each child is then exactly one
// bound flip away from the basis it repairs.
func (s *searcher) branch(rel *lp.Solution, basis *lp.Basis) {
	s.nodes++
	if s.opts.LP.Ctx != nil && s.opts.LP.Ctx.Err() != nil {
		s.limited = true
		s.canceled = true
		return
	}
	if s.nodes >= s.opts.MaxNodes {
		s.limited = true
		return
	}

	// Prune by bound.
	if s.bestX != nil {
		improves := s.better(rel.Objective, s.bestObj)
		if !improves {
			s.pruneBound++
			return
		}
	}

	// Find the most fractional integer variable.
	frac := -1
	fracDist := 0.0
	for _, j := range s.intCols {
		v := rel.X[j]
		d := math.Abs(v - math.Round(v))
		if d > intTol && d > fracDist {
			frac, fracDist = j, d
		}
	}
	if frac == -1 {
		// Integer feasible: candidate incumbent.
		if s.bestX == nil || s.better(rel.Objective, s.bestObj) {
			s.incumbents++
			s.bestObj = rel.Objective
			s.bestX = append([]float64(nil), rel.X...)
			// Snap near-integers exactly.
			for _, j := range s.intCols {
				s.bestX[j] = math.Round(s.bestX[j])
			}
		}
		return
	}

	lo, hi := s.prob.Bounds(frac)
	v := rel.X[frac]
	floorV := math.Floor(v)

	// Explore the child nearer the LP value first.
	downFirst := v-floorV < 0.5
	for pass := 0; pass < 2; pass++ {
		down := downFirst == (pass == 0)
		var err error
		if down {
			err = s.prob.SetBounds(frac, lo, floorV)
		} else {
			err = s.prob.SetBounds(frac, floorV+1, hi)
		}
		if err != nil {
			// Empty child interval (e.g. floor below lower bound): skip.
			continue
		}
		childOpts := s.opts.LP
		var childBasis *lp.Basis
		if basis != nil {
			if pass == 0 {
				childBasis = basis.Clone()
			} else {
				childBasis = basis
			}
			childOpts.Warm = childBasis
		}
		child, solveErr := s.prob.Solve(childOpts)
		if solveErr == nil && child.Status == lp.StatusOptimal {
			s.branch(child, childBasis)
		} else if solveErr == nil && child.Status == lp.StatusIterLimit {
			s.limited = true
		} else if solveErr == nil && child.Status == lp.StatusCanceled {
			s.limited = true
			s.canceled = true
		} else if solveErr == nil && child.Status == lp.StatusInfeasible {
			s.pruneInfeas++
		}
		if err := s.prob.SetBounds(frac, lo, hi); err != nil {
			// Restoring previously valid bounds cannot fail.
			panic("mip: restore bounds: " + err.Error())
		}
		if s.limited {
			return
		}
	}
}
