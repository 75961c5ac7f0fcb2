package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"metis/internal/demand"
	"metis/internal/obs"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/spm"
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
	// DefaultDecisionRetention bounds the decision-record history; the
	// oldest records are dropped past it so a long-running daemon's
	// memory stays flat.
	DefaultDecisionRetention = 1 << 17
)

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
	// PathsPerRequest sizes candidate path sets (default
	// sched.DefaultPathsPerRequest).
	PathsPerRequest int
	// QueueLimit bounds the arrival queue (default DefaultQueueLimit).
	QueueLimit int
	// MaxBatch bounds how many queued arrivals one tick claims; the
	// excess stays queued (in id order) for later ticks. 0 means a tick
	// claims the whole queue. A cap sized to what the policy can decide
	// inside the tick budget keeps a backlog spike from snowballing:
	// without it one slow tick grows the next claim, which overruns
	// harder, and the loop degrades epoch after epoch.
	MaxBatch int
	// DecisionRetention bounds the decision-record history (default
	// DefaultDecisionRetention; must exceed QueueLimit so queued
	// requests are never pruned).
	DecisionRetention int
	// SnapshotPath, when set, is where Run persists the ledger + queue:
	// every SnapshotEvery epochs and once more on drain.
	SnapshotPath string
	// SnapshotEvery is the snapshot period in epochs (0 = only on
	// drain).
	SnapshotEvery int
	// Tracer, when non-nil, receives the request-lifecycle trace: one
	// "serve.arrival" event per submit, one "serve.solve" span per
	// policy call, and one "serve.epoch" span per tick.
	Tracer obs.Tracer
	// ScorecardSize bounds the epoch health scorecard served by
	// /debug/epochs (default DefaultScorecardSize).
	ScorecardSize int
	// Flight, when non-nil, arms the anomaly flight recorder (see
	// FlightConfig).
	Flight *FlightConfig
	// Check, when true, runs the spm ledger invariant checker after
	// every tick's commit (no per-(link, slot) capacity overcommit). A
	// violation increments serve.check_failures and Stats.CheckFailures;
	// it never panics the daemon. Meant for replay smokes and debugging,
	// not the hot path.
	Check bool
	// CommitWorkers bounds the goroutines CommitBatch fans commits
	// across (default: GOMAXPROCS, capped at 8).
	CommitWorkers int
	// WAL, when set, makes the daemon durable: Submit appends an
	// arrival record and acks only after a group fsync, and Tick
	// appends its redo record (fsynced) and then commits exactly that
	// record. Recovery is Restore (optional snapshot) + RecoverWAL,
	// which commits each logged record through the same function. A WAL
	// append/fsync failure mid-tick fences the server — it stops
	// serving rather than hand out undurable decisions.
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
	if c.PathsPerRequest <= 0 {
		c.PathsPerRequest = sched.DefaultPathsPerRequest
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.DecisionRetention <= 0 {
		c.DecisionRetention = DefaultDecisionRetention
	}
	if c.DecisionRetention <= c.QueueLimit {
		c.DecisionRetention = 2 * c.QueueLimit
	}
	if c.CommitWorkers <= 0 {
		c.CommitWorkers = runtime.GOMAXPROCS(0)
		if c.CommitWorkers > 8 {
			c.CommitWorkers = 8
		}
	}
	return c, nil
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
	// expired", "degraded: …").
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
	Policy            string  `json:"policy"`
	Role              string  `json:"role"`
	FencingToken      uint64  `json:"fencingToken,omitempty"`
	Epoch             int     `json:"epoch"`
	Cycle             int     `json:"cycle"`
	Slot              int     `json:"slot"`
	QueueDepth        int     `json:"queueDepth"`
	Submitted         int64   `json:"submitted"`
	Accepted          int64   `json:"accepted"`
	Rejected          int64   `json:"rejected"`
	Shed              int64   `json:"shed"`
	DegradedEpochs    int64   `json:"degradedEpochs"`
	DegradedDecisions int64   `json:"degradedDecisions"`
	Overruns          int64   `json:"overruns"`
	CheckFailures     int64   `json:"checkFailures"`
	LastCheckError    string  `json:"lastCheckError,omitempty"`
	Committed         int     `json:"committed"`
	PurchasedUnits    int     `json:"purchasedUnits"`
	PurchasedCost     float64 `json:"purchasedCost"`
	Revenue           float64 `json:"revenue"`
	Draining          bool    `json:"draining"`
	EpochMillis       int64   `json:"epochMillis"`
	Slots             int     `json:"slots"`
	// Latency summarizes the lifecycle histograms for this server's
	// policy: "queueWait" plus one entry per decision outcome.
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

// pending is one queued arrival.
type pending struct {
	id  int64
	req demand.Request
	at  time.Time // arrival time, anchor for queue-wait and decision latency
}

// intakeShards and decisionShards size the sharded arrival queue and
// decision-record map. Submits hash by request id, so concurrent
// clients contend on different shard locks instead of one global mutex.
const (
	intakeShards   = 16
	decisionShards = 16
)

// intakeShard is one stripe of the arrival queue.
type intakeShard struct {
	mu    sync.Mutex
	queue []pending
}

// decisionShard is one stripe of the decision-record map.
type decisionShard struct {
	mu sync.RWMutex
	m  map[int64]*Decision
}

// Server is the admission-control daemon: an HTTP ingest surface over a
// bounded, sharded arrival queue, an epoch tick loop deciding batches
// against the ledger, and snapshot/restore plus WAL replay for crash
// recovery. A tick's decisions take effect only as a redo record
// (walTick) passed to commitTick, live and on replay alike.
//
// Lock order: s.mu → intakeShard.mu / decisionShard.mu / ledger
// stripes. Submit takes only shard locks; ticks and snapshots take s.mu
// first.
type Server struct {
	cfg    Config
	tracer obs.Tracer // cfg.Tracer teed with the flight recorder's span ring
	lat    *latencyObs
	score  *scoreRing
	flight *flightRecorder // nil unless cfg.Flight is set

	// Ingest path: lock-free id assignment and depth accounting plus
	// per-shard queue/decision locks. No submit ever touches s.mu.
	nextID     atomic.Int64
	queueDepth atomic.Int64 // arrivals queued, not yet claimed by a tick
	draining   atomic.Bool
	nSubmitted atomic.Int64
	nShed      atomic.Int64
	shards     [intakeShards]intakeShard
	dshards    [decisionShards]decisionShard

	// Durability & HA. walGate orders arrival appends against snapshot
	// offset capture: submits append+enqueue under RLock, Snapshot
	// takes the write lock (after s.mu) so the offset it records covers
	// exactly the arrivals its queue scan saw. Tick's record rides
	// s.mu instead, which snapshots already hold.
	walGate sync.RWMutex
	role    atomic.Int32  // roleLeader / roleStandby / roleFenced
	token   atomic.Uint64 // fencing token minted by the HA layer

	mu          sync.Mutex
	led         *Ledger
	deciding    []pending    // batch owned by an in-flight tick (still snapshot-visible)
	pruneFrom   int64        // lowest decision id possibly still retained
	epoch       int          // ticks processed
	walFrom     wal.Offset   // replay starts here (recorded by Restore)
	policyImage *PolicyState // policy cycle state as of the last committed tick

	// Per-instance stats (the obs counters are process-global).
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
		cfg:    cfg,
		tracer: cfg.Tracer,
		lat:    newLatencyObs(cfg.Policy.Name()),
		score:  newScoreRing(cfg.ScorecardSize),
		led:    NewLedger(cfg.Net, cfg.Slots),
	}
	s.nextID.Store(1)
	s.pruneFrom = 1
	for i := range s.dshards {
		s.dshards[i].m = make(map[int64]*Decision)
	}
	if cfg.Flight != nil {
		s.flight = newFlightRecorder(*cfg.Flight)
		s.tracer = combineTracers(cfg.Tracer, s.flight.ring)
	}
	return s, nil
}

func (s *Server) dshard(id int64) *decisionShard {
	return &s.dshards[int(id)%decisionShards]
}

// decided applies fn to the live decision record for id, if retained.
func (s *Server) decided(id int64, fn func(*Decision)) {
	ds := s.dshard(id)
	ds.mu.Lock()
	if d, ok := ds.m[id]; ok {
		fn(d)
	}
	ds.mu.Unlock()
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
	cp := NewLedger(s.cfg.Net, s.cfg.Slots)
	cp.restoreMust(s.led.snap())
	return cp
}

func (l *Ledger) restoreMust(snap LedgerImage) {
	if err := l.restore(snap); err != nil {
		panic("serve: ledger copy: " + err.Error())
	}
}

// ErrDraining is returned by Submit once drain has begun.
var ErrDraining = errors.New("serve: draining, not accepting new requests")

// ErrQueueFull is returned by Submit when the arrival queue is at its
// limit; the HTTP layer maps it to 429.
var ErrQueueFull = errors.New("serve: arrival queue full")

// Submit validates and enqueues one reservation request for the next
// epoch tick. The request's ID field is ignored; the server assigns its
// own. On success the returned decision has StatusQueued. Submit never
// takes the server's tick lock: ids come from an atomic counter and the
// arrival lands in an intake shard, so concurrent clients contend only
// per shard.
func (s *Server) Submit(req demand.Request) (*Decision, error) {
	d, off, err := s.submitAt(req, time.Now())
	if err != nil {
		return nil, err
	}
	// Ack only after the arrival record is fsynced (group commit: the
	// wait batches with every other in-flight submit and tick).
	if err := s.walWait(off); err != nil {
		return nil, err
	}
	return d, nil
}

// walWait blocks until off is durable (no-op without a WAL).
func (s *Server) walWait(off wal.Offset) error {
	if s.cfg.WAL == nil || off.IsZero() {
		return nil
	}
	if err := s.cfg.WAL.WaitDurable(off); err != nil {
		return fmt.Errorf("serve: wal fsync: %w", err)
	}
	return nil
}

func (s *Server) submitAt(req demand.Request, now time.Time) (*Decision, wal.Offset, error) {
	if r := s.role.Load(); r != roleLeader {
		return nil, wal.Offset{}, roleErr(r)
	}
	if s.draining.Load() {
		return nil, wal.Offset{}, ErrDraining
	}
	req.ID = 0 // assigned below; validate with a neutral id
	if err := req.Validate(s.cfg.Net, s.cfg.Slots); err != nil {
		cInvalid.Inc()
		return nil, wal.Offset{}, err
	}
	// Reserve a depth slot before the id so a shed never burns an id.
	if s.queueDepth.Add(1) > int64(s.cfg.QueueLimit) {
		s.queueDepth.Add(-1)
		s.nShed.Add(1)
		cShed.Inc()
		if s.tracer != nil {
			obs.Event(s.tracer, "serve.arrival", obs.Fields{"outcome": "shed"})
		}
		return nil, wal.Offset{}, ErrQueueFull
	}
	id := s.nextID.Add(1) - 1
	req.ID = int(id)
	// The WAL append and the enqueue happen under the same walGate read
	// hold: a concurrent snapshot's offset barrier (write lock) then
	// sees either both — arrival in the queue scan, record before the
	// offset — or neither. The durability wait happens outside, so the
	// gate is never held across an fsync.
	var off wal.Offset
	s.walGate.RLock()
	if w := s.cfg.WAL; w != nil {
		var err error
		off, err = w.Append(walRecArrival, encodeArrival(&req))
		if err != nil {
			s.walGate.RUnlock()
			s.queueDepth.Add(-1)
			return nil, wal.Offset{}, fmt.Errorf("serve: wal append: %w", err)
		}
	}
	d := &Decision{ID: id, Status: StatusQueued, Request: req}
	ds := s.dshard(id)
	ds.mu.Lock()
	ds.m[id] = d
	// The caller's copy is taken under the shard lock: once the record
	// is in the map a concurrent tick may claim the request and mutate
	// it (also under this lock), so an unsynchronized read of *d races.
	cp := *d
	ds.mu.Unlock()
	sh := &s.shards[int(id)%intakeShards]
	sh.mu.Lock()
	sh.queue = append(sh.queue, pending{id: id, req: req, at: now})
	sh.mu.Unlock()
	s.walGate.RUnlock()
	s.nSubmitted.Add(1)
	cSubmitted.Inc()
	depth := s.queueDepth.Load()
	gQueueDepth.Set(depth)
	if s.tracer != nil {
		obs.Event(s.tracer, "serve.arrival", obs.Fields{
			"id": id, "outcome": "queued", "queue_depth": depth,
		})
	}
	return &cp, off, nil
}

// BatchResult is one entry of a batch-submit response: the assigned id
// for a queued request, or the shed/invalid/draining outcome.
type BatchResult struct {
	ID     int64  `json:"id,omitempty"`
	Status string `json:"status"` // queued, shed, invalid or draining
	Error  string `json:"error,omitempty"`
}

// SubmitAll enqueues a batch of requests in order, returning one result
// per request. Outcomes are independent: a shed or invalid entry does
// not stop the rest of the batch.
func (s *Server) SubmitAll(reqs []demand.Request) []BatchResult {
	now := time.Now()
	out := make([]BatchResult, len(reqs))
	var maxOff wal.Offset
	for i, r := range reqs {
		d, off, err := s.submitAt(r, now)
		switch {
		case err == nil:
			out[i] = BatchResult{ID: d.ID, Status: StatusQueued}
			if off.After(maxOff) {
				maxOff = off
			}
		case errors.Is(err, ErrQueueFull):
			out[i] = BatchResult{Status: "shed", Error: err.Error()}
		case errors.Is(err, ErrDraining) || errors.Is(err, ErrStandby) || errors.Is(err, ErrFenced):
			out[i] = BatchResult{Status: "draining", Error: err.Error()}
		default:
			out[i] = BatchResult{Status: "invalid", Error: err.Error()}
		}
	}
	// One durability wait covers the whole batch — the point of group
	// commit: a 500-request batch costs one fsync, not 500.
	if err := s.walWait(maxOff); err != nil {
		for i := range out {
			if out[i].Status == StatusQueued {
				out[i] = BatchResult{ID: out[i].ID, Status: "error", Error: err.Error()}
			}
		}
	}
	return out
}

// claimIntake steals every shard's queue and merges them back into
// submission (id) order. When max > 0 only the oldest max arrivals are
// claimed; the rest are re-queued for the next tick. Callers hold s.mu.
func (s *Server) claimIntake(max int) []pending {
	var batch []pending
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		batch = append(batch, sh.queue...)
		sh.queue = nil
		sh.mu.Unlock()
	}
	sort.Slice(batch, func(a, b int) bool { return batch[a].id < batch[b].id })
	if max > 0 && len(batch) > max {
		for _, p := range batch[max:] {
			sh := &s.shards[int(p.id)%intakeShards]
			sh.mu.Lock()
			sh.queue = append(sh.queue, p)
			sh.mu.Unlock()
		}
		batch = batch[:max]
	}
	return batch
}

// Decision returns the decision record for id, or nil.
func (s *Server) Decision(id int64) *Decision {
	ds := s.dshard(id)
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	d, ok := ds.m[id]
	if !ok {
		return nil
	}
	cp := *d
	cp.Links = append([]int(nil), d.Links...)
	return &cp
}

// Stats returns a consistent snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	lat := map[string]LatencySummary{"queueWait": summarize(s.lat.queueWait)}
	for outcome, h := range s.lat.decision {
		lat[outcome] = summarize(h)
	}
	return Stats{
		Policy:            s.cfg.Policy.Name(),
		Role:              roleName(s.role.Load()),
		FencingToken:      s.token.Load(),
		Epoch:             s.epoch,
		Cycle:             s.epoch / s.cfg.Slots,
		Slot:              s.epoch % s.cfg.Slots,
		QueueDepth:        int(s.queueDepth.Load()) + len(s.deciding),
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
		Latency:           lat,
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
		QueueDepth:    int(s.queueDepth.Load()) + len(s.deciding),
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
	for e := range out {
		l := s.cfg.Net.Link(e)
		out[e] = LinkState{
			ID: l.ID, From: l.From, To: l.To, Price: l.Price,
			Purchased: s.led.purchased[e], PeakLoad: s.led.PeakLoad(e),
		}
	}
	return out
}

// Tick processes one epoch synchronously: it takes the queued batch,
// decides it with the policy under the tick budget derived from ctx
// into the tick's redo record, logs the record when there is a WAL, and
// commits it (commitTick). It is the unit the Run loop schedules; tests
// call it directly for deterministic epochs.
func (s *Server) Tick(ctx context.Context) {
	if s.role.Load() != roleLeader {
		// A standby has no authority to decide; a fenced server lost it.
		return
	}
	start := time.Now()
	budget := time.Duration(float64(s.cfg.Epoch) * s.cfg.TickBudget)
	tickCtx, cancel := context.WithTimeout(contextOrBackground(ctx), budget)
	defer cancel()
	before := obs.Snapshot() // solver-activity baseline for the scorecard

	// Claim the batch; keep it snapshot-visible in s.deciding so a
	// concurrent snapshot cannot lose in-flight arrivals.
	s.mu.Lock()
	epoch := s.epoch
	slot := epoch % s.cfg.Slots
	s.wrapCycle(epoch)
	batch := s.claimIntake(s.cfg.MaxBatch)
	s.deciding = batch
	s.queueDepth.Add(-int64(len(batch)))
	gQueueDepth.Set(s.queueDepth.Load())
	revBefore, costBefore := s.revenue, s.led.Cost()
	s.mu.Unlock()

	// Queue-wait: arrival → batch claim, observed per request into the
	// policy's histogram and aggregated for the scorecard row.
	var waitSum, waitMax float64
	for _, p := range batch {
		w := start.Sub(p.at).Seconds()
		s.lat.queueWait.Observe(w)
		waitSum += w
		if w > waitMax {
			waitMax = w
		}
	}

	tr, reqs, solved, failed := s.decide(tickCtx, batch, epoch, slot)
	var tickRec []byte // encoded before the commit lock is taken
	if s.cfg.WAL != nil {
		if rp, ok := s.cfg.Policy.(replayPolicy); ok {
			tr.Policy = rp.replayDelta()
		}
		tickRec = encodeTick(&tr)
	}

	// Commit phase: apply the record under the lock.
	now := time.Now()
	s.mu.Lock()
	if tickRec != nil {
		// The tick record must be durable before any of its decisions
		// become visible. Appending under s.mu serializes with snapshot
		// offset capture (snapshots hold s.mu): an image either predates
		// this record or reflects the committed state. The fsync batches
		// with concurrent submit acks (group commit); in-flight submit
		// appends interleave freely before the record — their arrivals
		// are not part of this batch.
		err := func() error {
			off, err := s.cfg.WAL.Append(walRecTick, tickRec)
			if err != nil {
				return err
			}
			return s.cfg.WAL.WaitDurable(off)
		}()
		if err != nil {
			// Durability lost: fence instead of handing out undurable
			// decisions. The claimed batch goes back to the queue so a
			// final snapshot still carries it; the arrivals are on disk
			// (or the client never got an ack), so a restart recovers.
			s.Fence()
			s.lastCheckErr = "wal failed, server fenced: " + err.Error()
			for _, p := range batch {
				sh := &s.shards[int(p.id)%intakeShards]
				sh.mu.Lock()
				sh.queue = append(sh.queue, p)
				sh.mu.Unlock()
			}
			s.queueDepth.Add(int64(len(batch)))
			s.deciding = nil
			s.mu.Unlock()
			return
		}
	}
	s.commitTick(&tr, reqs)
	s.deciding = nil
	// Decision latency (arrival → commit) per outcome, and the row's
	// outcome counts.
	var nAccepted, nExpired int
	for k := range tr.Outcomes {
		o := &tr.Outcomes[k]
		outcome := OutcomeRejected
		switch {
		case o.Degraded:
			outcome = OutcomeDegraded
		case o.Kind == walKindAccept:
			outcome = OutcomeAccepted
		}
		s.lat.observeDecision(outcome, now.Sub(batch[k].at).Seconds())
		switch o.Kind {
		case walKindAccept:
			nAccepted++
		case walKindExpired:
			nExpired++
		}
	}
	if sp, ok := s.cfg.Policy.(statefulPolicy); ok {
		// Cache the policy's cycle state at the tick boundary: this is
		// the exact state matching the committed ledger, so a concurrent
		// snapshot never captures a mid-decision model.
		s.policyImage = sp.policyState()
	}
	elapsed := time.Since(start)
	if elapsed > budget {
		s.nOverruns++
		cOverruns.Inc()
	}
	cEpochs.Inc()
	histTick.Observe(elapsed.Seconds())

	// Scorecard row for the tick. The counter snapshot is taken after
	// the commit counters moved, so the row's solver columns cover the
	// whole tick.
	after := obs.Snapshot()
	rec := EpochRecord{
		Epoch:         epoch,
		Cycle:         epoch / s.cfg.Slots,
		Slot:          slot,
		Policy:        s.cfg.Policy.Name(),
		Role:          roleName(s.role.Load()),
		UnixMillis:    now.UnixMilli(),
		Batch:         len(batch),
		Accepted:      nAccepted,
		Rejected:      len(batch) - nAccepted - nExpired,
		Expired:       nExpired,
		Shed:          s.nShed.Load() - s.shedMark,
		QueueDepth:    int(s.queueDepth.Load()),
		Degraded:      tr.Degraded,
		Overrun:       elapsed > budget,
		BudgetMillis:  float64(budget.Microseconds()) / 1e3,
		ElapsedMillis: float64(elapsed.Microseconds()) / 1e3,
		RevenueDelta:  s.revenue - revBefore,
		CostDelta:     s.led.Cost() - costBefore,
	}
	rec.ProfitDelta = rec.RevenueDelta - rec.CostDelta
	if len(batch) > 0 {
		rec.QueueWaitMeanMillis = waitSum / float64(len(batch)) * 1e3
		rec.QueueWaitMaxMillis = waitMax * 1e3
	}
	rec.fillSolverDeltas(before, after)
	switch {
	case failed:
		rec.SolveStatus = SolveError
	case tr.Degraded:
		rec.SolveStatus = SolveDegradedFallback
	case rec.ReplansDegraded > 0:
		rec.SolveStatus = SolveReplanDegraded
	case solved:
		rec.SolveStatus = SolveOK
	default:
		rec.SolveStatus = SolveIdle
	}
	s.shedMark = s.nShed.Load()
	s.lastTickEnd = now

	// Flight-recorder trigger check runs under mu so the ledger image
	// in the bundle is the exact committed state of the anomalous tick;
	// the dump itself (JSON encode + disk) runs after unlock.
	var (
		dumpTrig  string
		doDump    bool
		ledgerImg LedgerImage
	)
	if s.flight != nil {
		if trig, ok := s.flight.shouldDump(rec); ok {
			dumpTrig, doDump = trig, true
			ledgerImg = s.led.snap()
		}
	}
	s.mu.Unlock()

	if s.tracer != nil {
		obs.Span(s.tracer, "serve.epoch", start, obs.Fields{
			"epoch":       epoch,
			"cycle":       rec.Cycle,
			"slot":        slot,
			"batch":       len(batch),
			"accepted":    nAccepted,
			"rejected":    len(batch) - nAccepted,
			"expired":     nExpired,
			"shed":        rec.Shed,
			"degraded":    tr.Degraded,
			"status":      rec.SolveStatus,
			"policy":      s.cfg.Policy.Name(),
			"budget_ms":   rec.BudgetMillis,
			"elapsed_ms":  rec.ElapsedMillis,
			"queue_depth": rec.QueueDepth,
		})
	}
	s.score.push(rec)
	if doDump {
		recent := s.score.records()
		if len(recent) > maxBundleEpochs {
			recent = recent[len(recent)-maxBundleEpochs:]
		}
		s.flight.dump(dumpTrig, rec, recent, ledgerImg, before, after)
	}
}

// maxBundleEpochs bounds the epoch history embedded in one flight
// bundle (the full scorecard stays on /debug/epochs).
const maxBundleEpochs = 32

// decide runs the policy over the claimed batch under the tick budget
// and returns the tick's redo record, one outcome per batch position.
// reqs[k] is the request outcome k decides: server id, window clamped to
// the deciding slot. solved reports that the policy ran, failed that it
// returned an error other than the budget's.
func (s *Server) decide(ctx context.Context, batch []pending, epoch, slot int) (tr walTick, reqs []demand.Request, solved, failed bool) {
	tr = walTick{Epoch: epoch, Slot: slot, Outcomes: make([]walOutcome, len(batch))}
	reqs = make([]demand.Request, len(batch))
	var live []int // batch positions whose window is still open
	var liveReqs []demand.Request
	for k, p := range batch {
		r := p.req
		r.ID = int(p.id)
		tr.Outcomes[k].ID = p.id
		if r.End < slot {
			// The window has fully passed: rejected outright.
			tr.Outcomes[k].Kind = walKindExpired
		} else {
			// Slots already in the past cannot be reserved.
			if r.Start < slot {
				r.Start = slot
			}
			tr.Outcomes[k].Start = r.Start
			live = append(live, k)
			liveReqs = append(liveReqs, r)
		}
		reqs[k] = r
	}
	if len(live) == 0 {
		return tr, reqs, false, false
	}
	reject := func(reason string) {
		for _, k := range live {
			o := &tr.Outcomes[k]
			o.Kind, o.Reason, o.Degraded = walKindReject, reason, tr.Degraded
		}
	}
	inst, err := sched.NewInstance(s.cfg.Net, s.cfg.Slots, liveReqs, s.cfg.PathsPerRequest)
	if err != nil {
		// Validated at ingest, so this is unreachable in practice; reject
		// the batch rather than crash the loop.
		reject("internal: " + err.Error())
		return tr, reqs, false, false
	}
	led := s.LedgerCopy()
	solveStart := time.Now()
	st, err := s.cfg.Policy.Decide(ctx, led, inst, epoch, slot)
	if err != nil && solvectx.Is(err) {
		// Tick budget exhausted mid-solve: degrade to the greedy fallback
		// (never solves an LP, always decides) instead of stalling or
		// dropping the epoch.
		tr.Degraded = true
		st, err = GreedyPolicy{}.Decide(nil, led, inst, epoch, slot)
	}
	if s.tracer != nil {
		f := obs.Fields{
			"epoch": epoch, "slot": slot, "policy": s.cfg.Policy.Name(),
			"requests": len(live), "degraded": tr.Degraded,
		}
		if err != nil {
			f["error"] = err.Error()
		}
		obs.Span(s.tracer, "serve.solve", solveStart, f)
	}
	if err != nil {
		reject("policy error: " + err.Error())
		return tr, reqs, true, true
	}
	tr.Purchased = st.Purchased()
	schedule := st.Schedule()
	for j, k := range live {
		o := &tr.Outcomes[k]
		o.Degraded = tr.Degraded
		if c := schedule.Choice(j); c != sched.Declined {
			o.Kind, o.Links = walKindAccept, append([]int(nil), inst.Path(j, c).Links...)
		} else {
			o.Kind, o.Reason = walKindReject, "declined by policy"
		}
	}
	return tr, reqs, true, false
}

// commitTick applies one decided tick: the accepted requests and the
// purchases to the ledger, then every decision record, revenue and the
// decision counters, the -check sweep, history pruning and the epoch
// advance. Tick calls it with the record it has just logged and
// RecoverWAL with the record it has just read, so a recovered server's
// state is the leader's. reqs[i] is the request tr.Outcomes[i] decides,
// window clamped. Callers hold s.mu.
func (s *Server) commitTick(tr *walTick, reqs []demand.Request) {
	// Fold the epoch's accepted requests into the ledger in one batch,
	// fanned across the per-link stripes, before any decision shows.
	entries := make([]CommitEntry, 0, len(tr.Outcomes))
	for i := range tr.Outcomes {
		if o := &tr.Outcomes[i]; o.Kind == walKindAccept {
			entries = append(entries, CommitEntry{Req: reqs[i], Links: o.Links})
		}
	}
	s.led.CommitBatch(entries, s.cfg.CommitWorkers)
	if tr.Purchased != nil {
		// Adopt plan-driven provisioning beyond what the commits bought.
		s.led.Provision(tr.Purchased)
	}
	gPurchasedUnits.Set(int64(s.led.PurchasedUnits()))

	cycle := tr.Epoch / s.cfg.Slots
	for i := range tr.Outcomes {
		o := &tr.Outcomes[i]
		status, reason := StatusRejected, o.Reason
		if o.Kind == walKindAccept {
			status = StatusAccepted
			s.nAccepted++
			s.revenue += reqs[i].Value
			cAccepted.Inc()
		} else {
			s.nRejected++
			cRejected.Inc()
		}
		if o.Kind == walKindExpired {
			reason = "window expired before decision"
			cExpired.Inc()
		}
		if o.Degraded {
			s.nDegradedDecisions++
			cDegradedDecisions.Inc()
		}
		s.decided(o.ID, func(d *Decision) {
			d.Status, d.Reason, d.Links, d.Degraded = status, reason, o.Links, o.Degraded
			d.Epoch, d.Cycle, d.Slot = tr.Epoch, cycle, tr.Slot
		})
	}
	if tr.Degraded {
		s.nDegraded++
		cDegraded.Inc()
	}
	if s.cfg.Check {
		// Invariant sweep over the committed state: no per-(link, slot)
		// capacity overcommit, purchases covering peaks. A failure is
		// recorded, never fatal — the replay smokes assert the counter.
		if err := spm.CheckLedger(s.led.Loads(), s.led.Purchased()); err != nil {
			s.nCheckFailures++
			s.lastCheckErr = err.Error()
			cCheckFailures.Inc()
		}
	}
	// Bound the decision history: drop the oldest records once the map
	// outgrows the retention window. Only ids below nextID − retention
	// go, and retention exceeds the queue limit, so a queued request is
	// never pruned — nor, during recovery, an id recoverArrival must
	// still dedupe against.
	for s.nextID.Load()-s.pruneFrom > int64(s.cfg.DecisionRetention) {
		id := s.pruneFrom
		ds := s.dshard(id)
		ds.mu.Lock()
		delete(ds.m, id)
		ds.mu.Unlock()
		s.pruneFrom++
	}
	s.epoch++
}

// wrapCycle opens a new billing cycle when epoch is the first slot of
// one (after the first): a fresh ledger and cycle-scoped policy state,
// since purchases do not carry over. Callers hold s.mu.
func (s *Server) wrapCycle(epoch int) {
	if epoch > 0 && epoch%s.cfg.Slots == 0 {
		s.led.Reset()
		s.cfg.Policy.Reset()
		cCycles.Inc()
	}
}

func contextOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Run drives the epoch tick loop until ctx is canceled, then drains:
// intake stops (Submit returns ErrDraining), one final tick decides
// everything still queued, and — when configured — a last snapshot is
// written. Periodic snapshots honor Config.SnapshotEvery.
func (s *Server) Run(ctx context.Context) error {
	ticker := time.NewTicker(s.cfg.Epoch)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return s.Drain()
		case <-ticker.C:
			// The tick context must not die with ctx mid-decision: the
			// drain path owns cancellation semantics.
			s.Tick(context.Background())
			if s.cfg.SnapshotPath != "" && s.cfg.SnapshotEvery > 0 && s.Epoch()%s.cfg.SnapshotEvery == 0 {
				if err := s.SnapshotFile(s.cfg.SnapshotPath); err != nil {
					return fmt.Errorf("serve: periodic snapshot: %w", err)
				}
			}
		}
	}
}

// Drain performs the graceful-shutdown sequence: stop intake, decide
// the remaining queue in final ticks, and write a final snapshot when
// configured. It is idempotent. The loop (rather than a single tick)
// closes the race with a submit that passed the draining check just as
// the flag flipped and landed in a shard after the first final claim.
func (s *Server) Drain() error {
	if s.draining.Swap(true) {
		return nil
	}
	// With a claim cap a full queue needs ceil(limit/cap) ticks to drain.
	maxTicks := 4
	if s.cfg.MaxBatch > 0 {
		maxTicks += (s.cfg.QueueLimit + s.cfg.MaxBatch - 1) / s.cfg.MaxBatch
	}
	for i := 0; i < maxTicks && s.queueDepth.Load() > 0; i++ {
		s.Tick(context.Background())
	}
	if s.cfg.SnapshotPath != "" {
		if err := s.SnapshotFile(s.cfg.SnapshotPath); err != nil {
			return fmt.Errorf("serve: drain snapshot: %w", err)
		}
	}
	return nil
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/requests        submit a reservation request → 202 {id}
//	POST /v1/requests/batch  submit a JSON array of requests → 200 [results]
//	GET  /v1/decisions/{id}  decision record → 200/404
//	GET  /v1/links           per-link ledger state
//	GET  /v1/stats           counters + daemon time + latency digests
//	GET  /healthz            readiness: 200 keeping up, 503 shedding/behind/draining
//	GET  /debug/epochs       epoch health scorecard (JSON array, oldest first)
//	GET  /debug/flightrec    flight-recorder bundle headers
//	GET  /debug/flightrec/{id}  one full postmortem bundle
//	POST /v1/snapshot        write a snapshot now (needs SnapshotPath)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/requests", s.handleSubmit)
	mux.HandleFunc("POST /v1/requests/batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/decisions/{id}", s.handleDecision)
	mux.HandleFunc("GET /v1/links", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Links())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/epochs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.EpochRecords())
	})
	mux.HandleFunc("GET /debug/flightrec", func(w http.ResponseWriter, _ *http.Request) {
		if s.flight == nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "flight recorder not armed"})
			return
		}
		writeJSON(w, http.StatusOK, s.FlightBundles())
	})
	mux.HandleFunc("GET /debug/flightrec/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad id"})
			return
		}
		b, ok := s.FlightBundle(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown bundle id"})
			return
		}
		writeJSON(w, http.StatusOK, b)
	})
	mux.HandleFunc("POST /v1/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		if s.cfg.SnapshotPath == "" {
			writeJSON(w, http.StatusConflict, map[string]string{"error": "no snapshot path configured"})
			return
		}
		if err := s.SnapshotFile(s.cfg.SnapshotPath); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"path": s.cfg.SnapshotPath})
	})
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if !h.Healthy() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	buf := getIntakeBuf()
	defer putIntakeBuf(buf)
	_, err := buf.ReadFrom(r.Body)
	var req demand.Request
	if err == nil {
		req, err = decodeRequest(buf.Bytes())
	}
	out := buf.Bytes()[:0]
	if err != nil {
		writeReply(w, http.StatusBadRequest, appendErrorReply(out, "decode request: "+err.Error(), ""))
		return
	}
	d, err := s.Submit(req)
	code := http.StatusAccepted
	var verr *demand.ValidationError
	switch {
	case err == nil:
		out = appendDecision(out, d)
	case errors.As(err, &verr):
		out, code = appendErrorReply(out, verr.Msg, verr.Field), http.StatusUnprocessableEntity
	case errors.Is(err, ErrQueueFull):
		out, code = appendErrorReply(out, err.Error(), ""), http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrStandby), errors.Is(err, ErrFenced):
		out, code = appendErrorReply(out, err.Error(), ""), http.StatusServiceUnavailable
	default:
		out, code = appendErrorReply(out, err.Error(), ""), http.StatusInternalServerError
	}
	writeReply(w, code, out)
}

// handleSubmitBatch decodes one JSON array of requests and enqueues
// them in order: a single decode and reply for the whole batch keeps
// high-rate load generators off the per-request overhead. Body and
// reply share one pooled buffer (httpcodec.go).
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	buf := getIntakeBuf()
	defer putIntakeBuf(buf)
	_, err := buf.ReadFrom(r.Body)
	var reqs []demand.Request
	if err == nil {
		reqs, err = decodeBatch(buf.Bytes())
	}
	out := buf.Bytes()[:0]
	if err != nil {
		writeReply(w, http.StatusBadRequest, appendErrorReply(out, "decode batch: "+err.Error(), ""))
		return
	}
	writeReply(w, http.StatusOK, appendBatchAck(out, s.SubmitAll(reqs)))
}

func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad id"})
		return
	}
	d := s.Decision(id)
	if d == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown decision id"})
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Listen binds addr and serves the HTTP API until the server is
// closed; it returns the bound listener (useful with ":0") and a close
// function.
func (s *Server) Listen(addr string, extra func(*http.ServeMux)) (net.Listener, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	if extra != nil {
		extra(mux)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln, srv.Close, nil
}
