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
// tick did. The replan columns are the change in this server's policy's
// own replan counts over the tick.
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

	// metis-incremental replans run during the tick, and those the
	// budget cut short.
	Replans         int64 `json:"replans"`
	ReplansDegraded int64 `json:"replansDegraded"`

	// Realized economics of the tick.
	RevenueDelta float64 `json:"revenueDelta"`
	CostDelta    float64 `json:"costDelta"`
	ProfitDelta  float64 `json:"profitDelta"`
}

// scoreRing is the epoch scorecard behind /debug/epochs: a fixed-size
// buffer of the most recent records. It has its own lock so readers
// never contend with the Server's mu.
type scoreRing struct {
	mu   sync.Mutex
	buf  []EpochRecord
	next int
	full bool
}

func newScoreRing(size int) *scoreRing {
	if size <= 0 {
		size = DefaultScorecardSize
	}
	return &scoreRing{buf: make([]EpochRecord, size)}
}

func (r *scoreRing) push(v EpochRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// snapshot returns the retained values, oldest first.
func (r *scoreRing) snapshot() []EpochRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]EpochRecord(nil), r.buf[:r.next]...)
	}
	out := make([]EpochRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// last returns the most recent value, if any.
func (r *scoreRing) last() (EpochRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full && r.next == 0 {
		return EpochRecord{}, false
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
