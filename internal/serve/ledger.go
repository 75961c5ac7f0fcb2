// Package serve is the service layer: a long-running admission-control
// daemon (cmd/metisd) that accepts bandwidth-reservation requests over
// HTTP, batches arrivals into per-slot epochs, and decides each batch
// with a pluggable admission policy under a per-tick deadline. The
// solver stack stays pure and batch-oriented; this package owns all the
// operational state — the link-state ledger, the sharded arrival queue,
// load shedding, the write-ahead log and its recovery, and graceful
// drain.
package serve

import (
	"slices"

	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/wan"
)

// Ledger is the committed link state of one billing cycle: the load
// already promised per (link, slot) and the bandwidth units purchased
// per link (monotone within a cycle — units bought stay paid until the
// cycle ends). It is the durable core of the daemon: the log's tick
// records rebuild it on recovery, and every epoch's admission decisions
// are made against a copy of it.
//
// A Ledger has no lock of its own. The Server's live ledger is guarded
// by Server.mu, which every tick phase, read endpoint and recovery step
// that touches it already holds; a policy only ever sees a private copy
// (Server.LedgerCopy).
type Ledger struct {
	slots     int
	prices    []float64
	purchased []int
	loads     [][]float64
	committed int // requests accepted this cycle
}

// NewLedger returns an empty ledger over net's links and a cycle of
// slots slots.
func NewLedger(net *wan.Network, slots int) *Ledger {
	l := &Ledger{
		slots:     slots,
		prices:    make([]float64, net.NumLinks()),
		purchased: make([]int, net.NumLinks()),
		loads:     make([][]float64, net.NumLinks()),
	}
	for e := 0; e < net.NumLinks(); e++ {
		l.prices[e] = net.Link(e).Price
		l.loads[e] = make([]float64, slots)
	}
	return l
}

// Committed returns the number of requests accepted this cycle.
func (l *Ledger) Committed() int { return l.committed }

// Purchased returns a copy of the per-link purchased units.
func (l *Ledger) Purchased() []int { return slices.Clone(l.purchased) }

// Loads returns a copy of the committed per-(link, slot) load matrix.
func (l *Ledger) Loads() [][]float64 {
	out := make([][]float64, len(l.loads))
	for e := range l.loads {
		out[e] = slices.Clone(l.loads[e])
	}
	return out
}

// PeakLoad returns link e's peak committed load over the cycle.
func (l *Ledger) PeakLoad(e int) float64 {
	var peak float64
	for _, v := range l.loads[e] {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// CommitEntry is one accepted request to fold into the ledger: the
// request (windows already clamped) and its assigned path's links.
type CommitEntry struct {
	Req   demand.Request
	Links []int
}

// CommitBatch folds a whole epoch's accepted requests into the ledger
// in batch order: on every link of its path, each entry reserves its
// rate over its slot window and buys any extra whole units the new peak
// requires. workers is ignored; the parameter stays for callers built
// against the signature.
func (l *Ledger) CommitBatch(entries []CommitEntry, workers int) {
	for _, en := range entries {
		r := en.Req
		for _, e := range en.Links {
			var peak float64
			for t := r.Start; t <= r.End; t++ {
				l.loads[e][t] += r.Rate
				if l.loads[e][t] > peak {
					peak = l.loads[e][t]
				}
			}
			if c := sched.CeilUnits(peak); c > l.purchased[e] {
				l.purchased[e] = c
			}
		}
	}
	l.committed += len(entries)
}

// Provision raises the per-link purchase to at least plan (monotone;
// entries beyond the link count are ignored).
func (l *Ledger) Provision(plan []int) {
	for e, units := range plan {
		if e >= len(l.purchased) {
			break
		}
		if units > l.purchased[e] {
			l.purchased[e] = units
		}
	}
}

// Cost returns the cycle-to-date purchase cost Σ_e price_e·purchased_e.
func (l *Ledger) Cost() float64 {
	var c float64
	for e, units := range l.purchased {
		c += float64(units) * l.prices[e]
	}
	return c
}

// PurchasedUnits returns the total units purchased across links.
func (l *Ledger) PurchasedUnits() int {
	var n int
	for _, units := range l.purchased {
		n += units
	}
	return n
}

// Reset clears the ledger for a new billing cycle: loads, purchases and
// the committed count all return to zero. Prices are retained.
func (l *Ledger) Reset() {
	l.committed = 0
	for e := range l.purchased {
		l.purchased[e] = 0
		clear(l.loads[e])
	}
}

// Equal reports whether two ledgers carry identical committed state
// (bit-for-bit loads, purchases, committed count). Used by the
// recovery and failover tests.
func (l *Ledger) Equal(o *Ledger) bool {
	if l.slots != o.slots || l.committed != o.committed ||
		!slices.Equal(l.purchased, o.purchased) || len(l.loads) != len(o.loads) {
		return false
	}
	for e := range l.loads {
		if !slices.Equal(l.loads[e], o.loads[e]) {
			return false
		}
	}
	return true
}

// clone returns a deep copy of the ledger (prices, never written, are
// shared).
func (l *Ledger) clone() *Ledger {
	cp := *l
	cp.purchased = l.Purchased()
	cp.loads = l.Loads()
	return &cp
}
