package serve

import "sync"

// DefaultScorecardSize bounds the epoch-record ring served by
// /debug/epochs.
const DefaultScorecardSize = 512

// Epoch solve statuses (EpochRecord.SolveStatus).
const (
	// SolveIdle: the batch was empty; no policy call was made.
	SolveIdle = "idle"
	// SolveOK: the policy decided the batch inside its budget.
	SolveOK = "ok"
	// SolveDegradedFallback: the policy overran the tick budget and the
	// epoch was decided by the greedy fallback.
	SolveDegradedFallback = "degraded-fallback"
	// SolveReplanDegraded: the metis-incremental replan was cut short by
	// the budget but the epoch was still decided (incumbent or previous
	// plan).
	SolveReplanDegraded = "replan-degraded"
	// SolveError: the policy returned a non-budget error; the batch was
	// rejected.
	SolveError = "error"
)

// EpochRecord is one row of the epoch health scorecard: everything one
// tick did, including what the solver stack was doing underneath it
// (solver figures are deltas of the process-wide obs counters over the
// tick, so concurrent servers in one process smear each other's solver
// columns — the daemon runs exactly one).
type EpochRecord struct {
	Epoch      int    `json:"epoch"`
	Cycle      int    `json:"cycle"`
	Slot       int    `json:"slot"`
	Policy     string `json:"policy"`
	Role       string `json:"role,omitempty"`
	UnixMillis int64  `json:"unixMillis"`

	// Batch outcome.
	Batch    int   `json:"batch"`
	Accepted int   `json:"accepted"`
	Rejected int   `json:"rejected"`
	Expired  int   `json:"expired"`
	Shed     int64 `json:"shed"` // sheds since the previous tick's commit

	// Epoch health.
	QueueDepth    int     `json:"queueDepth"` // arrivals queued during the tick, still waiting
	Degraded      bool    `json:"degraded"`
	Overrun       bool    `json:"overrun"`
	SolveStatus   string  `json:"solveStatus"`
	BudgetMillis  float64 `json:"budgetMillis"`
	ElapsedMillis float64 `json:"elapsedMillis"`

	// Request latency inside this epoch (arrival → batch claim).
	QueueWaitMeanMillis float64 `json:"queueWaitMeanMillis"`
	QueueWaitMaxMillis  float64 `json:"queueWaitMaxMillis"`

	// Solver activity during the tick (obs counter deltas).
	LPSolves         int64 `json:"lpSolves"`
	LPIters          int64 `json:"lpIters"`
	Rounds           int64 `json:"rounds"`
	WarmHits         int64 `json:"warmHits"`
	WarmStalls       int64 `json:"warmStalls"`
	ColdFallbacks    int64 `json:"coldFallbacks"`
	PricingFallbacks int64 `json:"pricingFallbacks"`
	DualColdStarts   int64 `json:"dualColdStarts"`
	DualColdBails    int64 `json:"dualColdBails"`
	Replans          int64 `json:"replans"`
	ReplansDegraded  int64 `json:"replansDegraded"`

	// Realized economics of the tick.
	RevenueDelta float64 `json:"revenueDelta"`
	CostDelta    float64 `json:"costDelta"`
	ProfitDelta  float64 `json:"profitDelta"`
}

// counterDelta reads key's delta between two obs snapshots.
func counterDelta(before, after map[string]float64, key string) int64 {
	return int64(after[key] - before[key])
}

// fillSolverDeltas populates the solver-activity columns from the tick's
// before/after counter snapshots.
func (r *EpochRecord) fillSolverDeltas(before, after map[string]float64) {
	r.LPSolves = counterDelta(before, after, "lp.solves")
	r.LPIters = counterDelta(before, after, "lp.iters")
	r.Rounds = counterDelta(before, after, "core.rounds")
	r.WarmHits = counterDelta(before, after, "lp.warm.hits")
	r.WarmStalls = counterDelta(before, after, "lp.warm.stalls")
	r.ColdFallbacks = counterDelta(before, after, "lp.warm.cold_fallbacks")
	r.PricingFallbacks = counterDelta(before, after, "lp.pricing.fallbacks")
	r.DualColdStarts = counterDelta(before, after, "lp.pricing.dual_cold_starts")
	r.DualColdBails = counterDelta(before, after, "lp.pricing.dual_cold_bails")
	r.Replans = counterDelta(before, after, "serve.replans")
	r.ReplansDegraded = counterDelta(before, after, "serve.replans_degraded")
}

// ring is a fixed-size buffer of the most recent values: the epoch
// scorecard behind /debug/epochs, and the flight recorder's span ring.
// It has its own lock so readers never contend with the Server's mu.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
	full bool
}

func newScoreRing(size int) *ring[EpochRecord] {
	if size <= 0 {
		size = DefaultScorecardSize
	}
	return &ring[EpochRecord]{buf: make([]EpochRecord, size)}
}

func (r *ring[T]) push(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// snapshot returns the retained values, oldest first.
func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// last returns the most recent value, if any.
func (r *ring[T]) last() (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full && r.next == 0 {
		var zero T
		return zero, false
	}
	i := r.next - 1
	if i < 0 {
		i = len(r.buf) - 1
	}
	return r.buf[i], true
}

// EpochRecords returns the scorecard's retained epoch records, oldest
// first.
func (s *Server) EpochRecords() []EpochRecord { return s.score.snapshot() }
