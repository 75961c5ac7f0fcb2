package metis

import (
	"io"

	"metis/internal/serve"
)

// Service-layer re-exports: the metisd admission-control daemon (see
// internal/serve and cmd/metisd). The daemon accepts reservation
// requests over HTTP, batches arrivals into epoch ticks, decides each
// batch with a pluggable policy against the cycle's link-state ledger,
// and, given a write-ahead log, recovers its state from the log.
type (
	// Server is the long-running admission-control daemon.
	Server = serve.Server
	// ServeConfig parameterizes a Server.
	ServeConfig = serve.Config
	// ServePolicy decides one epoch's arrival batch.
	ServePolicy = serve.Policy
	// ServeDecision is the recorded outcome of one submitted request.
	ServeDecision = serve.Decision
	// ServeStats is the daemon's /v1/stats payload.
	ServeStats = serve.Stats
	// ServeLinkState is one entry of the /v1/links payload.
	ServeLinkState = serve.LinkState
	// Arrival is one line of a timestamped JSONL workload stream
	// (cmd/wangen -stream emits them; cmd/metisload replays them).
	Arrival = serve.Arrival
	// ServeEpochRecord is one row of the epoch health scorecard
	// (/debug/epochs).
	ServeEpochRecord = serve.EpochRecord
	// ServeHealth is the daemon's /healthz payload.
	ServeHealth = serve.Health
	// ServeLatencySummary is one latency digest inside ServeStats.
	ServeLatencySummary = serve.LatencySummary
	// ServeBatchResult is one entry of the POST /v1/requests/batch
	// response.
	ServeBatchResult = serve.BatchResult
)

// Typed Submit failures; match with errors.Is. Validation failures are
// *ValidationError values instead (match with errors.As).
var (
	// ErrQueueFull reports that the arrival queue is at its limit (the
	// HTTP layer maps it to 429).
	ErrQueueFull = serve.ErrQueueFull
	// ErrDraining reports that the daemon has begun its graceful drain.
	ErrDraining = serve.ErrDraining
)

// NewServer builds an admission-control daemon from cfg.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// NewServePolicy builds an epoch policy by name: "greedy" (marginal-cost
// buy-as-you-go; also the empty name), "taa" (per-epoch TAA admission
// into plan) or "metis-incremental" (every replanEvery epochs a replan
// under cfg refines a persistent warm model of the cycle's workload
// into a capacity plan; guided TAA admission in between). Any other
// name is an error.
func NewServePolicy(name string, plan []int, replanEvery int, cfg Config) (ServePolicy, error) {
	return serve.NewPolicy(name, plan, replanEvery, cfg)
}

// WriteArrivals writes a timestamped workload stream as JSONL.
func WriteArrivals(w io.Writer, arrivals []Arrival) error { return serve.WriteArrivals(w, arrivals) }

// ReadArrivals decodes a JSONL workload stream.
func ReadArrivals(r io.Reader) ([]Arrival, error) { return serve.ReadArrivals(r) }
