package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"metis/internal/demand"
	"metis/internal/obs"
	"metis/internal/wal"
	"metis/internal/wan"
)

// Default configuration values.
const (
	// DefaultEpoch is the default tick interval.
	DefaultEpoch = 500 * time.Millisecond
	// DefaultTickBudget is the fraction of the epoch the decision may
	// spend before it is degraded.
	DefaultTickBudget = 0.8
	// DefaultQueueLimit bounds the arrival queue; submits beyond it are
	// shed with HTTP 429.
	DefaultQueueLimit = 4096
)

// DecisionRetention bounds the decision-record history; the oldest
// records are dropped past it so a long-running daemon's memory stays
// flat. A queue limit at or above it raises the bound to twice the
// limit, so a queued request is never pruned.
const DecisionRetention = 1 << 17

// Config parameterizes a Server.
type Config struct {
	// Net is the WAN topology served.
	Net *wan.Network
	// Slots is the billing-cycle length (default demand.DefaultSlots).
	// The daemon maps epoch ticks onto cycle slots round-robin: tick n
	// decides slot n mod Slots, and the ledger resets when the cycle
	// wraps.
	Slots int
	// Epoch is the tick interval (default DefaultEpoch).
	Epoch time.Duration
	// TickBudget is the fraction of Epoch granted to each tick's
	// decision as a context deadline (default DefaultTickBudget). An
	// overrun degrades the epoch to the greedy fallback; it never
	// stalls the tick loop.
	TickBudget float64
	// Policy decides each epoch's batch (default GreedyPolicy).
	Policy Policy
	// QueueLimit bounds the arrival queue (default DefaultQueueLimit).
	QueueLimit int
	// MaxBatch bounds how many queued arrivals one tick claims; the
	// excess stays queued (in id order) for later ticks. 0 means a tick
	// claims the whole queue. A cap sized to what the policy can decide
	// inside the tick budget keeps a backlog spike from snowballing:
	// without it one slow tick grows the next claim, which overruns
	// harder, and the loop degrades epoch after epoch.
	MaxBatch int
	// Tracer, when non-nil, receives the request-lifecycle trace: one
	// "serve.arrival" event per submit, one "serve.solve" span per
	// policy call, and one "serve.epoch" span per tick.
	Tracer obs.Tracer
	// ScorecardSize bounds the epoch health scorecard served by
	// /debug/epochs (default DefaultScorecardSize).
	ScorecardSize int
	// Check, when true, runs the spm ledger invariant checker after
	// every tick's commit (no per-(link, slot) capacity overcommit). A
	// violation increments serve.check_failures and Stats.CheckFailures;
	// it never panics the daemon. Meant for replay smokes and debugging,
	// not the hot path.
	Check bool
	// WAL, when set, makes the daemon durable: Submit appends an
	// arrival record and acks only after a group fsync, and Tick
	// appends its redo record (fsynced) and then commits exactly that
	// record. Recovery is RecoverWAL, which commits each logged record
	// through the same function: the log is the state, and a server
	// without one keeps its state in memory only. A WAL append/fsync
	// failure mid-tick fences the server — it stops serving rather than
	// hand out undurable decisions.
	WAL *wal.Log
}

func (c Config) withDefaults() (Config, error) {
	if c.Net == nil {
		return c, errors.New("serve: config needs a network")
	}
	if c.Slots <= 0 {
		c.Slots = demand.DefaultSlots
	}
	if c.Epoch <= 0 {
		c.Epoch = DefaultEpoch
	}
	if c.TickBudget <= 0 || c.TickBudget > 1 {
		c.TickBudget = DefaultTickBudget
	}
	if c.Policy == nil {
		c.Policy = GreedyPolicy{}
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	return c, nil
}

// retention is the decision-record history bound: DecisionRetention,
// or twice the queue limit when the limit reaches it.
func (c Config) retention() int64 {
	if c.QueueLimit >= DecisionRetention {
		return 2 * int64(c.QueueLimit)
	}
	return DecisionRetention
}

// Decision statuses.
const (
	StatusQueued   = "queued"
	StatusAccepted = "accepted"
	StatusRejected = "rejected"
)

// Decision is the recorded outcome of one submitted request.
type Decision struct {
	// ID is the server-assigned request id.
	ID int64 `json:"id"`
	// Status is queued, accepted or rejected.
	Status string `json:"status"`
	// Reason explains a rejection ("declined by policy", "window
	// expired before decision", "policy error: …"). A decision the
	// greedy fallback made carries Degraded, not a reason of its own.
	Reason string `json:"reason,omitempty"`
	// Links is the assigned path (link ids) of an accepted request.
	Links []int `json:"links,omitempty"`
	// Epoch, Cycle and Slot locate the decision in daemon time (set
	// once decided).
	Epoch int `json:"epoch,omitempty"`
	Cycle int `json:"cycle,omitempty"`
	Slot  int `json:"slot,omitempty"`
	// Degraded marks a decision made by the greedy fallback after the
	// policy overran the tick budget.
	Degraded bool `json:"degraded,omitempty"`
	// Request echoes the submitted request (with the server-assigned
	// id).
	Request demand.Request `json:"request"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	Policy            string `json:"policy"`
	Role              string `json:"role"`
	FencingToken      uint64 `json:"fencingToken,omitempty"`
	Epoch             int    `json:"epoch"`
	Cycle             int    `json:"cycle"`
	Slot              int    `json:"slot"`
	QueueDepth        int    `json:"queueDepth"`
	Submitted         int64  `json:"submitted"`
	Accepted          int64  `json:"accepted"`
	Rejected          int64  `json:"rejected"`
	Shed              int64  `json:"shed"`
	DegradedEpochs    int64  `json:"degradedEpochs"`
	DegradedDecisions int64  `json:"degradedDecisions"`
	Overruns          int64  `json:"overruns"`
	CheckFailures     int64  `json:"checkFailures"`
	LastCheckError    string `json:"lastCheckError,omitempty"`
	Committed         int    `json:"committed"`
	PurchasedUnits    int    `json:"purchasedUnits"`
	// PurchasedCost is what the current billing cycle's purchases cost;
	// it restarts at 0 when the cycle wraps.
	PurchasedCost float64 `json:"purchasedCost"`
	// Revenue is the value of every request accepted since the first
	// epoch. Unlike PurchasedCost it is never reset when a cycle wraps,
	// so Revenue − PurchasedCost is not one cycle's profit.
	Revenue     float64 `json:"revenue"`
	Draining    bool    `json:"draining"`
	EpochMillis int64   `json:"epochMillis"`
	Slots       int     `json:"slots"`
	// Latency summarizes this server's own lifecycle histograms:
	// "queueWait" plus one entry per decision outcome.
	Latency map[string]LatencySummary `json:"latency,omitempty"`
}

// LatencySummary is the quantile digest of one lifecycle histogram, in
// milliseconds.
type LatencySummary struct {
	Count      uint64  `json:"count"`
	MeanMillis float64 `json:"meanMillis"`
	P50Millis  float64 `json:"p50Millis"`
	P95Millis  float64 `json:"p95Millis"`
	P99Millis  float64 `json:"p99Millis"`
	MaxMillis  float64 `json:"maxMillis"`
}

func summarize(h *obs.Histogram) LatencySummary {
	s := h.Summary()
	return LatencySummary{
		Count:      s.Count,
		MeanMillis: s.Mean * 1e3,
		P50Millis:  s.P50 * 1e3,
		P95Millis:  s.P95 * 1e3,
		P99Millis:  s.P99 * 1e3,
		MaxMillis:  s.Max * 1e3,
	}
}

// LinkState is one entry of the /v1/links payload.
type LinkState struct {
	ID        int     `json:"id"`
	From      int     `json:"from"`
	To        int     `json:"to"`
	Price     float64 `json:"price"`
	Purchased int     `json:"purchased"`
	PeakLoad  float64 `json:"peakLoad"`
}

// Server is the admission-control daemon: an HTTP ingest surface over a
// bounded, id-ordered arrival queue, an epoch tick loop deciding batches
// against the ledger, and WAL replay for crash recovery. A tick's
// decisions take effect only as a redo record (walTick) passed to
// commitTick, live and on replay alike.
//
// s.mu guards s.led and the fields declared after it; it is the
// ledger's one lock, held by every tick phase, read endpoint and
// recovery step that touches the ledger. Lock order: s.mu → in.mu →
// dlog.mu. A submit batch takes in.mu and dlog.mu once each, never s.mu.
type Server struct {
	cfg   Config
	score *scoreRing

	// Request-lifecycle histograms, this server's alone; Stats digests
	// them. queueWait runs from arrival to batch claim, the others from
	// arrival to a committed decision of that outcome.
	queueWait                             obs.Histogram
	acceptedLat, rejectedLat, degradedLat obs.Histogram

	// Ingest path: ids are assigned under in.mu (by recovery under
	// s.mu); readers load the atomics without a lock.
	nextID     atomic.Int64
	queueDepth atomic.Int64 // arrivals queued, not yet claimed by a tick
	draining   atomic.Bool
	nSubmitted atomic.Int64
	nShed      atomic.Int64
	in         intake
	dlog       decisionLog

	// Durability & HA.
	role  atomic.Int32  // roleLeader / roleStandby / roleFenced
	token atomic.Uint64 // fencing token minted by the HA layer

	mu        sync.Mutex
	led       *Ledger
	nDeciding int        // arrivals claimed by an in-flight tick, still in the queue depth
	epoch     int        // ticks processed
	walFrom   wal.Offset // ApplyLog's cursor: the next pass starts here

	// Decision, epoch and check counts that Stats serves.
	nAccepted, nRejected, nDegraded, nOverruns int64
	nDegradedDecisions                         int64
	nCheckFailures                             int64
	lastCheckErr                               string
	revenue                                    float64

	// Health bookkeeping.
	lastTickEnd time.Time // when the last Tick committed
	shedMark    int64     // nShed at the last Tick commit (per-epoch shed delta)
}

// New builds a Server from cfg (defaults applied, plan lengths
// validated).
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if p, ok := cfg.Policy.(*TAAPolicy); ok && p.Plan != nil && len(p.Plan) != cfg.Net.NumLinks() {
		return nil, fmt.Errorf("serve: plan has %d links, network has %d", len(p.Plan), cfg.Net.NumLinks())
	}
	s := &Server{
		cfg:   cfg,
		score: newScoreRing(cfg.ScorecardSize),
		led:   NewLedger(cfg.Net, cfg.Slots),
	}
	s.nextID.Store(1)
	return s, nil
}

// Epoch returns the number of ticks processed so far.
func (s *Server) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// LedgerCopy returns a deep copy of the current ledger (tests,
// consistency checks).
func (s *Server) LedgerCopy() *Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.clone()
}

// Snapshot writes the committed state as one JSON object (daemon time,
// next id, revenue and the ledger) for inspection. Nothing reads it
// back: a server that must survive a restart runs with a WAL, and the
// log is its state. The benchmark's serve probe times it.
func (s *Server) Snapshot(w io.Writer) error {
	s.mu.Lock()
	img := struct {
		Epoch     int         `json:"epoch"`
		NextID    int64       `json:"nextId"`
		Revenue   float64     `json:"revenue"`
		Purchased []int       `json:"purchased"`
		Loads     [][]float64 `json:"loads"`
		Committed int         `json:"committed"`
	}{s.epoch, s.nextID.Load(), s.revenue, s.led.Purchased(), s.led.Loads(), s.led.Committed()}
	s.mu.Unlock()
	return json.NewEncoder(w).Encode(&img)
}

// Stats returns a consistent snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Policy:            s.cfg.Policy.Name(),
		Role:              roleName(s.role.Load()),
		FencingToken:      s.token.Load(),
		Epoch:             s.epoch,
		Cycle:             s.epoch / s.cfg.Slots,
		Slot:              s.epoch % s.cfg.Slots,
		QueueDepth:        int(s.queueDepth.Load()) + s.nDeciding,
		Submitted:         s.nSubmitted.Load(),
		Accepted:          s.nAccepted,
		Rejected:          s.nRejected,
		Shed:              s.nShed.Load(),
		DegradedEpochs:    s.nDegraded,
		DegradedDecisions: s.nDegradedDecisions,
		Overruns:          s.nOverruns,
		CheckFailures:     s.nCheckFailures,
		LastCheckError:    s.lastCheckErr,
		Committed:         s.led.Committed(),
		PurchasedUnits:    s.led.PurchasedUnits(),
		PurchasedCost:     s.led.Cost(),
		Revenue:           s.revenue,
		Draining:          s.draining.Load(),
		EpochMillis:       s.cfg.Epoch.Milliseconds(),
		Slots:             s.cfg.Slots,
		Latency: map[string]LatencySummary{
			"queueWait":     summarize(&s.queueWait),
			OutcomeAccepted: summarize(&s.acceptedLat),
			OutcomeRejected: summarize(&s.rejectedLat),
			OutcomeDegraded: summarize(&s.degradedLat),
		},
	}
}

// Health statuses.
const (
	HealthStarting = "starting" // no tick has completed yet
	HealthOK       = "ok"
	HealthShedding = "shedding" // queue-full sheds since the last tick
	HealthBehind   = "behind"   // the tick loop has missed its cadence
	HealthDraining = "draining"
	HealthStandby  = "standby" // replicating, promotable, not serving
	HealthFenced   = "fenced"  // stepped down; a newer leader owns the state
)

// Health is the /healthz payload. Status is ok or starting when the
// daemon is keeping up; shedding, behind or draining map to HTTP 503.
type Health struct {
	Status          string `json:"status"`
	Role            string `json:"role"`
	FencingToken    uint64 `json:"fencingToken,omitempty"`
	Epoch           int    `json:"epoch"`
	QueueDepth      int    `json:"queueDepth"`
	EpochLagMillis  int64  `json:"epochLagMillis"` // time since the last tick committed
	ShedLastEpoch   int64  `json:"shedLastEpoch"`
	LastEpochStatus string `json:"lastEpochStatus,omitempty"`
}

// Healthy reports whether the status maps to HTTP 200. A standby is
// healthy (it is doing its one job: replicating); a fenced server is
// not — traffic must move to the leader that fenced it.
func (h Health) Healthy() bool {
	return h.Status == HealthOK || h.Status == HealthStarting || h.Status == HealthStandby
}

// Health reports whether the daemon is keeping up: ticking on cadence
// and not shedding load.
func (s *Server) Health() Health {
	s.mu.Lock()
	h := Health{
		Role:          roleName(s.role.Load()),
		FencingToken:  s.token.Load(),
		Epoch:         s.epoch,
		QueueDepth:    int(s.queueDepth.Load()) + s.nDeciding,
		ShedLastEpoch: s.nShed.Load() - s.shedMark,
	}
	draining, lastEnd := s.draining.Load(), s.lastTickEnd
	s.mu.Unlock()
	if !lastEnd.IsZero() {
		h.EpochLagMillis = time.Since(lastEnd).Milliseconds()
	}
	if rec, ok := s.score.last(); ok {
		h.LastEpochStatus = rec.SolveStatus
		if rec.Shed > 0 {
			h.ShedLastEpoch = rec.Shed
		}
	}
	switch {
	case h.Role == RoleFenced:
		h.Status = HealthFenced
	case h.Role == RoleStandby:
		h.Status = HealthStandby
	case draining:
		h.Status = HealthDraining
	case lastEnd.IsZero():
		h.Status = HealthStarting
	case h.ShedLastEpoch > 0:
		h.Status = HealthShedding
	case time.Since(lastEnd) > 2*s.cfg.Epoch:
		h.Status = HealthBehind
	default:
		h.Status = HealthOK
	}
	return h
}

// Links returns the per-link ledger view.
func (s *Server) Links() []LinkState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LinkState, s.cfg.Net.NumLinks())
	purchased := s.led.Purchased()
	for e := range out {
		l := s.cfg.Net.Link(e)
		out[e] = LinkState{
			ID: l.ID, From: l.From, To: l.To, Price: l.Price,
			Purchased: purchased[e], PeakLoad: s.led.PeakLoad(e),
		}
	}
	return out
}

// Run drives the epoch tick loop until ctx is canceled, then drains:
// intake stops (Submit returns ErrDraining) and final ticks decide
// everything still queued. The error is always nil: nothing on the
// loop can fail without fencing the server instead.
func (s *Server) Run(ctx context.Context) error {
	ticker := time.NewTicker(s.cfg.Epoch)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			s.Drain()
			return nil
		case <-ticker.C:
			// The tick context must not die with ctx mid-decision: the
			// drain path owns cancellation semantics.
			s.Tick(context.Background())
		}
	}
}

// Drain performs the graceful-shutdown sequence: stop intake and decide
// the remaining queue in final ticks. It is idempotent. The loop
// (rather than a single tick) closes the race with a submit that passed
// the draining check just as the flag flipped and landed in the queue
// after the first final claim.
func (s *Server) Drain() {
	if s.draining.Swap(true) {
		return
	}
	// With a claim cap a full queue needs ceil(limit/cap) ticks to drain.
	maxTicks := 4
	if s.cfg.MaxBatch > 0 {
		maxTicks += (s.cfg.QueueLimit + s.cfg.MaxBatch - 1) / s.cfg.MaxBatch
	}
	for i := 0; i < maxTicks && s.queueDepth.Load() > 0; i++ {
		s.Tick(context.Background())
	}
}
