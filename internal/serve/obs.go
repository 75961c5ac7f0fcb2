package serve

import "metis/internal/obs"

// cInvalid is serve's one instrument in the process-wide obs registry.
// Every other count lives on the Server and is served by /v1/stats;
// this one stays only because the frozen benchmark harness
// (bench/trace.go) reads serve.invalid from an obs snapshot. It goes
// when bench/ is next changed (ROADMAP's bench unfreeze).
var cInvalid = obs.NewCounter("serve.invalid", "reservation requests rejected at ingest by validation")

// Decision outcomes keying Stats.Latency's per-outcome digests.
const (
	OutcomeAccepted = "accepted"
	OutcomeRejected = "rejected"
	OutcomeDegraded = "degraded" // decided by the greedy fallback
)
