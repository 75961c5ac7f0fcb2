// Package serve is the service layer: a long-running admission-control
// daemon (cmd/metisd) that accepts bandwidth-reservation requests over
// HTTP, batches arrivals into per-slot epochs, and decides each batch
// with a pluggable admission policy under a per-tick deadline. The
// solver stack stays pure and batch-oriented; this package owns all the
// operational state — the link-state ledger, the id-ordered arrival queue,
// load shedding, the write-ahead log and its recovery, and graceful
// drain.
package serve

import (
	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/wan"
)

// Ledger is the committed link state of one billing cycle: the load
// already promised per (link, slot) and the bandwidth units purchased
// per link (monotone within a cycle — units bought stay paid until the
// cycle ends), held as a sched.Capacity, plus the count of requests
// accepted. It is the durable core of the daemon: the log's tick
// records rebuild it on recovery, and every epoch's admission decisions
// are made against a copy of it.
//
// A Ledger has no lock of its own. The Server's live ledger is guarded
// by Server.mu, which every tick phase, read endpoint and recovery step
// that touches it already holds; a policy only ever sees a private copy
// (Server.LedgerCopy).
type Ledger struct {
	*sched.Capacity
	committed int // requests accepted this cycle
}

// NewLedger returns an empty ledger over net's links and a cycle of
// slots slots.
func NewLedger(net *wan.Network, slots int) *Ledger {
	return &Ledger{Capacity: sched.NewCapacity(net, slots)}
}

// Committed returns the number of requests accepted this cycle.
func (l *Ledger) Committed() int { return l.committed }

// CommitEntry is one accepted request to fold into the ledger: the
// request (windows already clamped) and its assigned path's links.
type CommitEntry struct {
	Req   demand.Request
	Links []int
}

// CommitBatch commits a whole epoch's accepted requests in batch order.
// workers is ignored; the parameter stays for callers built against the
// signature.
func (l *Ledger) CommitBatch(entries []CommitEntry, workers int) {
	for _, en := range entries {
		l.Commit(en.Req, en.Links)
	}
	l.committed += len(entries)
}

// Reset clears the ledger for a new billing cycle: loads, purchases and
// the committed count all return to zero.
func (l *Ledger) Reset() {
	l.committed = 0
	l.Capacity.Reset()
}

// Equal reports whether two ledgers carry identical committed state
// (bit-for-bit loads, purchases, committed count). Used by the
// recovery and failover tests.
func (l *Ledger) Equal(o *Ledger) bool {
	return l.committed == o.committed && l.Capacity.Equal(o.Capacity)
}

// clone returns a deep copy of the ledger.
func (l *Ledger) clone() *Ledger {
	return &Ledger{Capacity: l.Capacity.Clone(), committed: l.committed}
}
