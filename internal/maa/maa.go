// Package maa implements the paper's Multistage Approximation Algorithm
// (Algorithm 1) for RL-SPM: solve the relaxed linear program, select one
// path per request by randomized rounding on the fractional routing, and
// round the per-link peak load up to integer charging bandwidth.
//
// MAA is an O((α+1)/α · log|E|/loglog|E|)-approximation for RL-SPM with
// high probability (Theorem 4 of the paper).
package maa

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"metis/internal/fault"
	"metis/internal/lp"
	"metis/internal/obs"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/spm"
	"metis/internal/stats"
)

// ErrNoRequests is returned for an empty instance.
var ErrNoRequests = errors.New("maa: instance has no requests")

// Options tunes MAA.
type Options struct {
	// LP configures the relaxation solve. LP.Ctx, when non-nil, makes
	// the call cancellable: it is polled before the LP and before each
	// randomized rounding, and on expiry Solve returns an error matching
	// solvectx.ErrCanceled/ErrDeadline.
	LP lp.Options
	// Relaxed optionally supplies a pre-solved RL-SPM relaxation for the
	// instance (core passes the previous round's relaxation when the
	// accepted set is unchanged); when set, the internal LP solve is
	// skipped. Its X must cover exactly the instance's requests.
	Relaxed *spm.RelaxedRL
	// Rounds is the number of independent randomized roundings; the
	// cheapest rounded schedule wins (default 1, the paper's algorithm).
	Rounds int
	// RNG supplies the rounding randomness (required unless Uniforms
	// is set).
	RNG *stats.RNG
	// Uniforms optionally replaces RNG draws with a pre-drawn block of
	// unit uniforms, consumed in the order the RNG would have been:
	// Rounds × (requests with positive fractional mass) values. Sweeps
	// that share one RNG across many Solve calls pre-draw one block per
	// call so the calls can run concurrently.
	Uniforms []float64
}

// Result is MAA's output.
type Result struct {
	// Schedule serves every request of the instance on exactly one path.
	Schedule *sched.Schedule
	// Charged is the integer charging bandwidth per link (the ceiling
	// of each link's peak load).
	Charged []int
	// Cost is Σ_e u_e·Charged[e].
	Cost float64
	// Relaxed is the underlying fractional solution; Relaxed.Cost is a
	// lower bound on the optimal RL-SPM cost.
	Relaxed *spm.RelaxedRL
}

// Alpha returns α = min_{e ∈ E'} ĉ_e, the smallest positive fractional
// charging bandwidth of the relaxation — the quantity behind Theorem 2:
// the ceiling step is an (α+1)/α-relaxed algorithm for P₂. Zero when no
// link carries load.
func (r *Result) Alpha() float64 {
	alpha := 0.0
	for _, c := range r.Relaxed.C {
		if c > 1e-9 && (alpha == 0 || c < alpha) {
			alpha = c
		}
	}
	return alpha
}

// CeilingRatio returns Theorem 2's (α+1)/α bound on the cost inflation
// of the integer-ceiling step, or +Inf when α is zero.
func (r *Result) CeilingRatio() float64 {
	alpha := r.Alpha()
	if alpha <= 0 {
		return math.Inf(1)
	}
	return (alpha + 1) / alpha
}

// TheoreticalRatio returns the Theorem 4 approximation guarantee for
// the given network size: (α+1)/α · log|E|/loglog|E| (the constant in
// the O(·) taken as 1). No solver path reads it: it is the Theorem 4
// oracle the package's tests hold measured ratios
// Result.Cost/Relaxed.Cost against.
func (r *Result) TheoreticalRatio(links int) float64 {
	if links < 3 {
		// loglog degenerates below e; the bound is vacuous here.
		return math.Inf(1)
	}
	logE := math.Log(float64(links))
	return r.CeilingRatio() * logE / math.Log(logE)
}

// Solve runs MAA on inst.
func Solve(inst *sched.Instance, opts Options) (*Result, error) {
	var s Solver
	defer s.Release()
	return s.Solve(inst, opts)
}

// Solver runs MAA calls in shared storage: each call's RL-SPM relaxation
// is rebuilt and solved in the arrays of the last one (spm.RLSolver),
// and its roundings, charged bandwidth and result are written into the
// arrays of the last call, so the rounds of one Metis solve allocate
// them about once. A result is the solver's: its next Solve rewrites
// it. Results are the package-level Solve's, bit for bit. The zero value
// is ready to use; a Solver is not safe for concurrent use.
type Solver struct {
	rl       spm.RLSolver
	uniforms []float64
	sc       [2]sched.Schedule // the cheapest rounding so far and the next
	loads    [][]float64
	charged  []int
	res      Result
}

// Release returns the simplex working arrays the solver keeps to lp's
// shared pool. The solver stays usable.
func (s *Solver) Release() { s.rl.Release() }

// Solve runs MAA on inst.
func (s *Solver) Solve(inst *sched.Instance, opts Options) (*Result, error) {
	if inst.NumRequests() == 0 {
		return nil, ErrNoRequests
	}
	if opts.RNG == nil && opts.Uniforms == nil {
		return nil, errors.New("maa: options require an RNG (or pre-drawn Uniforms)")
	}
	ctx := opts.LP.Ctx
	if fault.Active() {
		fault.Hit("maa.solve")
	}
	if err := solvectx.Err(ctx); err != nil {
		return nil, fmt.Errorf("maa: %w", err)
	}
	var t0 time.Time
	if opts.LP.Tracer != nil {
		t0 = time.Now()
	}
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 1
	}

	rel := opts.Relaxed
	if rel == nil {
		var err error
		rel, err = s.rl.Solve(inst, opts.LP)
		if err != nil {
			return nil, fmt.Errorf("maa: %w", err)
		}
	} else if len(rel.X) != inst.NumRequests() {
		return nil, fmt.Errorf("maa: supplied relaxation covers %d requests, instance has %d",
			len(rel.X), inst.NumRequests())
	}

	// Pre-draw every rounding uniform. Round consumes one uniform per
	// request whose fractional row has positive mass (rows with no mass
	// skip the draw, matching PickWeighted), and that set depends only on
	// rel — shared by all rounds. Drawing all rounds×drawn uniforms up
	// front is what lets a caller that shares one RNG across concurrent
	// Solve calls pre-draw each call's block instead (Options.Uniforms).
	k := inst.NumRequests()
	drawn := 0
	for i := 0; i < k; i++ {
		if stats.HasPositiveWeight(rel.X[i]) {
			drawn++
		}
	}
	var uniforms []float64
	if opts.Uniforms != nil {
		if len(opts.Uniforms) < rounds*drawn {
			return nil, fmt.Errorf("maa: %d pre-drawn uniforms, need %d (%d rounds × %d positive rows)",
				len(opts.Uniforms), rounds*drawn, rounds, drawn)
		}
		uniforms = opts.Uniforms[:rounds*drawn]
	} else {
		s.uniforms = slices.Grow(s.uniforms[:0], rounds*drawn)[:rounds*drawn]
		uniforms = s.uniforms
		for i := range uniforms {
			uniforms[i] = opts.RNG.Float64()
		}
	}

	// Lowest cost wins; ties break toward the earliest round.
	var best *sched.Schedule
	bestCost := 0.0
	for r := 0; r < rounds; r++ {
		// Per-rounding checkpoint: a multi-round MAA call stops between
		// roundings once the ctx fires.
		if err := solvectx.Err(ctx); err != nil {
			return nil, fmt.Errorf("maa: %w", err)
		}
		sc := &s.sc[0]
		if sc == best {
			sc = &s.sc[1]
		}
		if err := roundInto(sc, inst, rel, uniforms[r*drawn:(r+1)*drawn]); err != nil {
			return nil, err
		}
		s.loads = sc.LoadsInto(s.loads)
		if cost := sc.CostWithLoads(s.loads); best == nil || cost < bestCost {
			best, bestCost = sc, cost
		}
	}
	s.loads = best.LoadsInto(s.loads)
	s.charged = sched.ChargedInto(s.charged, s.loads)
	cSolves.Inc()
	cRoundings.Add(int64(rounds))
	if opts.LP.Tracer != nil {
		obs.Span(opts.LP.Tracer, "maa.solve", t0, obs.Fields{
			"k":              k,
			"rounds":         rounds,
			"cost":           bestCost,
			"relaxed_cost":   rel.Cost,
			"relaxed_reused": opts.Relaxed != nil,
		})
	}
	s.res = Result{
		Schedule: best,
		Charged:  s.charged,
		Cost:     bestCost,
		Relaxed:  rel,
	}
	return &s.res, nil
}

// roundInto makes s the rounding Round draws, driven by pre-drawn
// uniforms, one per request with positive fractional mass, in request
// order. It produces exactly the schedule Round would for uniforms
// drawn from an RNG in the same order.
func roundInto(s *sched.Schedule, inst *sched.Instance, rel *spm.RelaxedRL, uniforms []float64) error {
	s.Reset(inst)
	pos := 0
	for i := 0; i < inst.NumRequests(); i++ {
		j := -1
		if stats.HasPositiveWeight(rel.X[i]) {
			j = stats.PickWeightedWith(uniforms[pos], rel.X[i])
			pos++
		}
		if j < 0 {
			// The relaxation serves every request, so a vanishing row
			// is numerical noise; fall back to the cheapest path.
			j = 0
			cFallbackRows.Inc()
		}
		if err := s.Assign(i, j); err != nil {
			return err
		}
	}
	return nil
}

// Round performs one randomized rounding of the relaxed solution:
// request i is routed on path j with probability rel.X[i][j]
// (Algorithm 1, lines 2–4). Every request is served.
func Round(inst *sched.Instance, rel *spm.RelaxedRL, rng *stats.RNG) (*sched.Schedule, error) {
	if len(rel.X) != inst.NumRequests() {
		return nil, fmt.Errorf("maa: relaxation covers %d requests, instance has %d", len(rel.X), inst.NumRequests())
	}
	s := sched.NewSchedule(inst)
	for i := 0; i < inst.NumRequests(); i++ {
		j := rng.PickWeighted(rel.X[i])
		if j < 0 {
			// The relaxation serves every request, so a vanishing row
			// is numerical noise; fall back to the cheapest path.
			j = 0
			cFallbackRows.Inc()
		}
		if err := s.Assign(i, j); err != nil {
			return nil, err
		}
	}
	return s, nil
}
