package serve

import "metis/internal/obs"

// Admission-control counters, incremented once per request decision or
// per epoch tick. They live in the process-wide obs registry, so
// metisd's /metrics endpoint exposes them next to the solver counters.
var (
	cSubmitted = obs.NewCounter("serve.submitted", "reservation requests admitted to the arrival queue")
	cAccepted  = obs.NewCounter("serve.accepted", "reservation requests accepted and committed to the ledger")
	cRejected  = obs.NewCounter("serve.rejected", "reservation requests decided and declined")
	cShed      = obs.NewCounter("serve.shed", "reservation requests shed at ingest (queue full → HTTP 429)")
	cInvalid   = obs.NewCounter("serve.invalid", "reservation requests rejected at ingest by validation")
	cExpired   = obs.NewCounter("serve.expired", "reservation requests whose window ended before they were decided")

	cDegradedDecisions = obs.NewCounter("serve.degraded_decisions", "request decisions made by the greedy fallback after a budget overrun")

	cEpochs          = obs.NewCounter("serve.epochs", "epoch ticks processed")
	cDegraded        = obs.NewCounter("serve.degraded", "epochs whose policy overran the tick budget and degraded to the greedy fallback")
	cOverruns        = obs.NewCounter("serve.overruns", "epochs whose decision exceeded the tick budget wall-clock (missed-budget ticks)")
	cCycles          = obs.NewCounter("serve.cycles", "billing-cycle wraps (ledger resets)")
	cReplans         = obs.NewCounter("serve.replans", "replans run by the metis-incremental policy")
	cReplansDegraded = obs.NewCounter("serve.replans_degraded", "metis-incremental replans cut short by the tick budget (incumbent or previous plan kept)")
	cCheckFailures   = obs.NewCounter("serve.check_failures", "post-tick ledger invariant violations found by the -check sweep")
	gQueueDepth      = obs.NewGauge("serve.queue_depth", "arrivals waiting for the next epoch tick")
	gPurchasedUnits  = obs.NewGauge("serve.purchased_units", "total bandwidth units purchased this cycle")

	histTick = obs.NewHistogram("serve.tick_seconds", "wall-clock seconds per epoch tick")
)

// Decision outcomes used to key the per-policy latency histograms.
const (
	OutcomeAccepted = "accepted"
	OutcomeRejected = "rejected"
	OutcomeDegraded = "degraded" // decided by the greedy fallback
)

// latencyObs holds one server's request-lifecycle histograms. The
// instruments are keyed by policy name in the process-wide registry
// (GetOrNewHistogram), so multiple servers running the same policy —
// common in tests — share them rather than colliding.
type latencyObs struct {
	queueWait *obs.Histogram            // arrival → batch claim
	decision  map[string]*obs.Histogram // arrival → decision commit, per outcome
}

func newLatencyObs(policy string) *latencyObs {
	l := &latencyObs{
		queueWait: obs.GetOrNewHistogram(
			"serve.queue_wait_seconds."+policy,
			"seconds arrivals waited in the queue before their epoch batch was claimed (policy "+policy+")"),
		decision: make(map[string]*obs.Histogram, 3),
	}
	for _, outcome := range []string{OutcomeAccepted, OutcomeRejected, OutcomeDegraded} {
		l.decision[outcome] = obs.GetOrNewHistogram(
			"serve.decision_latency_seconds."+policy+"."+outcome,
			"seconds from arrival to a committed "+outcome+" decision (policy "+policy+")")
	}
	return l
}
