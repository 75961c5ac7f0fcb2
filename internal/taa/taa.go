// Package taa implements the paper's Tree-based Approximation Algorithm
// (Algorithm 2) for BL-SPM: solve the relaxed linear program, scale the
// fractional acceptance by the Chernoff factor µ of inequality (6), and
// derandomize the rounding by walking a K-level decision tree, fixing
// each request to the option (one of its candidate paths, or decline)
// that minimizes the pessimistic estimator u_root.
//
// On top of the estimator walk, this implementation enforces hard
// capacity feasibility: an option that would overload a link given the
// already-fixed requests is never taken (declining is always
// available). Theorem 6 guarantees good leaves exist; the hard check
// makes the output feasible even when floating-point noise perturbs the
// estimator, so TAA never returns a capacity-violating schedule.
package taa

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"metis/internal/chernoff"
	"metis/internal/fault"
	"metis/internal/lp"
	"metis/internal/obs"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/spm"
)

// Options tunes TAA.
type Options struct {
	// LP configures the relaxation solve. LP.Ctx, when non-nil, makes
	// the call cancellable: it is polled between stages and every 32
	// levels of the estimator walk, and on expiry SolveVar returns an
	// error matching solvectx.ErrCanceled/ErrDeadline.
	LP lp.Options
	// Relaxed optionally supplies a pre-solved BL-SPM relaxation for the
	// instance and capacities (e.g. from the spm.BLSession that
	// core.Replanner keeps across epochs); when set, the internal LP
	// solve is skipped. Its X must cover exactly the instance's requests, and
	// it must have been solved under the same capacities.
	Relaxed *spm.RelaxedBL
}

// Result is TAA's output.
type Result struct {
	// Schedule accepts a subset of requests; it is always feasible
	// under the capacities given to Solve.
	Schedule *sched.Schedule
	// Revenue is the schedule's service revenue.
	Revenue float64
	// Mu is the Chernoff scaling factor chosen by inequality (6); 0
	// when the estimator was skipped (no positive capacity).
	Mu float64
	// RevenueTarget is I_B converted to revenue units — the paper's
	// probabilistic lower bound on good schedules (Theorem 6).
	RevenueTarget float64
	// Relaxed is the fractional optimum; Relaxed.Revenue is an upper
	// bound on the optimal BL-SPM revenue.
	Relaxed *spm.RelaxedBL
}

// Solve runs TAA on inst under the given integer link capacities
// (constant across slots).
func Solve(inst *sched.Instance, caps []int, opts Options) (*Result, error) {
	return new(Solver).Solve(inst, caps, opts)
}

// SolveVar runs TAA under time-varying capacities: caps[e][t] bounds
// link e's load at slot t. This powers the online extension, where
// earlier commitments consume part of the capacity.
func SolveVar(inst *sched.Instance, caps [][]float64, opts Options) (*Result, error) {
	return new(Solver).SolveVar(inst, caps, opts)
}

// Solver runs TAA calls in shared storage: each call's Chernoff
// estimator, schedules, load trackers, walk order and result are
// rebuilt in the arrays of the last call, so the rounds of one Metis
// solve (which call Greedy) allocate them about once. A result is the solver's: its next
// call rewrites it. Results are the package-level functions', bit for
// bit. The zero value is ready to use; a Solver is not safe for
// concurrent use.
type Solver struct {
	est     chernoff.Estimator
	caps    [][]float64       // Solve's per-slot capacities
	sc      [2]sched.Schedule // the walk's schedule and the greedy one
	lt      [2]loadTracker    // and their loads
	order   []int
	density []float64 // walkOrder's sort keys, by request
	loads   [][]float64
	res     Result
}

// Solve is the package-level Solve in the solver's storage.
func (ts *Solver) Solve(inst *sched.Instance, caps []int, opts Options) (*Result, error) {
	if len(caps) != inst.Network().NumLinks() {
		return nil, fmt.Errorf("taa: capacity vector has %d entries, want %d", len(caps), inst.Network().NumLinks())
	}
	for e, c := range caps {
		if c < 0 {
			return nil, fmt.Errorf("taa: negative capacity %d on link %d", c, e)
		}
	}
	ts.caps = spm.ExpandCapsInto(ts.caps, inst, caps)
	return ts.SolveVar(inst, ts.caps, opts)
}

// Greedy is TAA's density-greedy arm alone, with no LP: requests in
// descending value density (walkOrder), each on its fewest-hops
// candidate path that fits the remaining capacity under caps, one
// non-negative entry per link, constant across slots. It is the
// schedule SolveVar compares its estimator walk against, and Metis's
// BL-SPM step: there the walk's schedule earns no more than this one
// on almost every call, and never changes a Metis result (DESIGN.md,
// "Implementation refinements"). The schedule is the solver's until
// its next call.
func (ts *Solver) Greedy(inst *sched.Instance, caps []int) *sched.Schedule {
	ts.caps = spm.ExpandCapsInto(ts.caps, inst, caps)
	return ts.greedySchedule(inst, ts.caps, ts.walkOrder(inst))
}

// SolveVar is the package-level SolveVar in the solver's storage.
func (ts *Solver) SolveVar(inst *sched.Instance, caps [][]float64, opts Options) (*Result, error) {
	if len(caps) != inst.Network().NumLinks() {
		return nil, fmt.Errorf("taa: capacity matrix has %d links, want %d", len(caps), inst.Network().NumLinks())
	}
	for e := range caps {
		if len(caps[e]) != inst.Slots() {
			return nil, fmt.Errorf("taa: capacity matrix link %d has %d slots, want %d", e, len(caps[e]), inst.Slots())
		}
		for t, c := range caps[e] {
			if c < 0 {
				return nil, fmt.Errorf("taa: negative capacity %v on link %d slot %d", c, e, t)
			}
		}
	}
	s := &ts.sc[0]
	s.Reset(inst)
	if inst.NumRequests() == 0 {
		ts.res = Result{Schedule: s}
		return &ts.res, nil
	}
	ctx := opts.LP.Ctx
	if fault.Active() {
		fault.Hit("taa.solve")
	}
	if err := solvectx.Err(ctx); err != nil {
		return nil, fmt.Errorf("taa: %w", err)
	}
	var t0 time.Time
	if opts.LP.Tracer != nil {
		t0 = time.Now()
	}

	rel := opts.Relaxed
	if rel == nil {
		var err error
		rel, err = spm.SolveBLRelaxationVar(inst, caps, opts.LP)
		if err != nil {
			return nil, fmt.Errorf("taa: %w", err)
		}
	} else if len(rel.X) != inst.NumRequests() {
		return nil, fmt.Errorf("taa: supplied relaxation covers %d requests, instance has %d",
			len(rel.X), inst.NumRequests())
	}

	// Minimum positive capacity, normalized by the maximum rate
	// (the paper's c after normalizing rates to [0, 1]).
	rmax := 0.0
	for i := 0; i < inst.NumRequests(); i++ {
		if r := inst.Request(i).Rate; r > rmax {
			rmax = r
		}
	}
	minCap := 0.0
	for e := range caps {
		for _, c := range caps[e] {
			if c > 0 && (minCap == 0 || c < minCap) {
				minCap = c
			}
		}
	}
	if minCap == 0 || rmax <= 0 {
		// No capacity anywhere: decline everything.
		ts.res = Result{Schedule: s, Relaxed: rel}
		return finishSolve(&ts.res, opts, t0, 0), nil
	}

	// With very small capacities relative to the largest rate,
	// inequality (6) admits only a uselessly tiny µ (or none): the
	// Theorem 6 guarantee is vacuous there and the estimator's tilts
	// overflow. Fall back to the greedy component alone.
	const muFloor = 1e-6
	mu, err := chernoff.SelectMu(minCap/rmax, inst.Slots(), inst.Network().NumLinks())
	if err != nil || mu < muFloor {
		g := ts.greedySchedule(inst, caps, ts.walkOrder(inst))
		if ferr := ts.feasibleUnderVar(g, caps); ferr != nil {
			return nil, fmt.Errorf("taa: internal: produced infeasible schedule: %w", ferr)
		}
		cMuFloor.Inc()
		ts.res = Result{Schedule: g, Revenue: g.Revenue(), Relaxed: rel}
		return finishSolve(&ts.res, opts, t0, 0), nil
	}
	est := &ts.est
	if err := est.Reset(inst, caps, rel.X, mu); err != nil {
		return nil, fmt.Errorf("taa: %w", err)
	}

	loads := &ts.lt[0]
	loads.reset(inst, caps)
	order := ts.walkOrder(inst)
	for idx, i := range order {
		// Mid-walk checkpoint: the estimator walk is the long sequential
		// stage of TAA, so poll every 32 levels.
		if ctx != nil && idx&31 == 0 {
			if err := solvectx.Err(ctx); err != nil {
				return nil, fmt.Errorf("taa: %w", err)
			}
		}
		best := chernoff.Decline
		bestU := est.CandidateU(i, chernoff.Decline)
		for j := 0; j < inst.NumPaths(i); j++ {
			if !loads.fits(i, j) {
				continue
			}
			// Strict improvement keeps ties on the side of declining,
			// except exact ties against Decline prefer serving the
			// request (more revenue at equal estimator value).
			u := est.CandidateU(i, j)
			if u < bestU || (u == bestU && best == chernoff.Decline) {
				best, bestU = j, u
			}
		}
		est.Decide(i, best)
		if best != chernoff.Decline {
			loads.add(i, best)
			if err := s.Assign(i, best); err != nil {
				return nil, err
			}
		}
	}

	// Checkpoint between the walk and the polishing passes; the passes
	// themselves are cheap relative to the walk.
	if err := solvectx.Err(ctx); err != nil {
		return nil, fmt.Errorf("taa: %w", err)
	}

	// Augmentation pass: the estimator walk guards the probabilistic
	// revenue target I_B, which leaves it conservative once the target
	// is met (small µ makes it nearly vacuous). Accepting any remaining
	// request that fits the residual capacity strictly increases
	// revenue and cannot violate feasibility, so the Theorem 6 bound
	// still holds for the final schedule.
	// Among the fitting candidate paths, admitMinHops takes the one
	// with the fewest hops: under fixed capacities the scarce resource
	// is link-slots, not money. The pass offers every request each path
	// once; loads only grow, so a request it leaves declined fits no
	// path of the final schedule either.
	for _, i := range order {
		if s.Choice(i) == sched.Declined {
			admitMinHops(inst, s, loads, i)
		}
	}

	// The estimator walk optimizes the probabilistic bound, not revenue
	// itself; a plain density-greedy pass can win on revenue. Both are
	// feasible, so return whichever earns more — the Theorem 6 target
	// still holds (revenue only moves up).
	if g := ts.greedySchedule(inst, caps, order); g.Revenue() > s.Revenue() {
		s = g
	}

	if err := ts.feasibleUnderVar(s, caps); err != nil {
		// The hard feasibility filter makes this unreachable; failing
		// loudly here protects the invariant.
		return nil, fmt.Errorf("taa: internal: produced infeasible schedule: %w", err)
	}
	ts.res = Result{
		Schedule:      s,
		Revenue:       s.Revenue(),
		Mu:            mu,
		RevenueTarget: est.IBValue(),
		Relaxed:       rel,
	}
	return finishSolve(&ts.res, opts, t0, len(order)), nil
}

// finishSolve flushes the per-solve counters and emits the "taa.solve"
// span; walkSteps is the number of estimator tree levels walked (zero on
// the greedy and no-capacity paths).
func finishSolve(res *Result, opts Options, t0 time.Time, walkSteps int) *Result {
	cSolves.Inc()
	if walkSteps > 0 {
		cWalkSteps.Add(int64(walkSteps))
	}
	k := res.Schedule.Instance().NumRequests()
	accepted := res.Schedule.NumAccepted()
	cAccepted.Add(int64(accepted))
	cDeclined.Add(int64(k - accepted))
	if opts.LP.Tracer != nil {
		obs.Span(opts.LP.Tracer, "taa.solve", t0, obs.Fields{
			"k":        k,
			"accepted": accepted,
			"revenue":  res.Revenue,
			"mu":       res.Mu,
		})
	}
	return res
}

// ErrNilInstance reports a nil instance.
var ErrNilInstance = errors.New("taa: nil instance")

// walkOrder returns the request indices sorted by descending value
// density: value per link-slot of capacity the request consumes on its
// shortest candidate path (rate · duration · hops). The method of
// conditional probabilities is order-invariant, but combined with the
// hard feasibility filter, fixing capacity-efficient high-value
// requests first prevents bulky early requests from crowding out
// valuable later ones.
func (ts *Solver) walkOrder(inst *sched.Instance) []int {
	n := inst.NumRequests()
	order := slices.Grow(ts.order[:0], n)[:n]
	density := slices.Grow(ts.density[:0], n)[:n]
	for i := range order {
		order[i] = i
		r := inst.Request(i)
		density[i] = r.Value / (r.Rate * float64(r.Duration()) * float64(minHops(inst, i)))
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(density[b], density[a]) })
	ts.order, ts.density = order, density
	return order
}

// minHops returns the hop count of request i's shortest candidate path.
func minHops(inst *sched.Instance, i int) int {
	hops := len(inst.Path(i, 0).Links)
	for j := 1; j < inst.NumPaths(i); j++ {
		if h := len(inst.Path(i, j).Links); h < hops {
			hops = h
		}
	}
	return hops
}

// greedySchedule accepts requests in the given order on the
// fewest-hops candidate path that fits the remaining capacity.
func (ts *Solver) greedySchedule(inst *sched.Instance, caps [][]float64, order []int) *sched.Schedule {
	s, loads := &ts.sc[1], &ts.lt[1]
	s.Reset(inst)
	loads.reset(inst, caps)
	for _, i := range order {
		admitMinHops(inst, s, loads, i)
	}
	return s
}

// admitMinHops assigns request i to its fitting candidate path with the
// fewest hops, if any.
func admitMinHops(inst *sched.Instance, s *sched.Schedule, loads *loadTracker, i int) {
	best := -1
	for j := 0; j < inst.NumPaths(i); j++ {
		if !loads.fits(i, j) {
			continue
		}
		if best == -1 || len(inst.Path(i, j).Links) < len(inst.Path(i, best).Links) {
			best = j
		}
	}
	if best == -1 {
		return
	}
	loads.add(i, best)
	if err := s.Assign(i, best); err != nil {
		panic("taa: greedy assign: " + err.Error())
	}
}

// loadTracker maintains the exact loads of already-fixed requests and
// answers "does assigning request i to path j keep every link within
// capacity".
type loadTracker struct {
	inst  *sched.Instance
	caps  [][]float64
	loads [][]float64
}

// reset empties lt for a walk over inst under caps, in lt's arrays.
func (lt *loadTracker) reset(inst *sched.Instance, caps [][]float64) {
	lt.inst, lt.caps = inst, caps
	lt.loads = sched.ZeroLoads(lt.loads, inst.Network().NumLinks(), inst.Slots())
}

func (lt *loadTracker) fits(i, j int) bool {
	const eps = 1e-9
	r := lt.inst.Request(i)
	for _, e := range lt.inst.Path(i, j).Links {
		for t := r.Start; t <= r.End; t++ {
			if lt.loads[e][t]+r.Rate > lt.caps[e][t]+eps {
				return false
			}
		}
	}
	return true
}

func (lt *loadTracker) add(i, j int) {
	r := lt.inst.Request(i)
	for _, e := range lt.inst.Path(i, j).Links {
		for t := r.Start; t <= r.End; t++ {
			lt.loads[e][t] += r.Rate
		}
	}
}

// feasibleUnderVar checks a schedule against time-varying capacities.
func (ts *Solver) feasibleUnderVar(s *sched.Schedule, caps [][]float64) error {
	ts.loads = s.LoadsInto(ts.loads)
	for e := range ts.loads {
		for t, v := range ts.loads[e] {
			if v > caps[e][t]+1e-9 {
				return &sched.CapacityViolationError{Link: e, Slot: t, Load: v, Capacity: int(caps[e][t])}
			}
		}
	}
	return nil
}
