package serve

import (
	"context"
	"fmt"

	"metis/internal/demand"
	"metis/internal/solvectx"
)

// CycleResult is one billing cycle of a RunCycles run.
type CycleResult struct {
	// Revenue is the value of the requests accepted during the cycle.
	Revenue float64
	// Cost is the cycle's purchase cost: Stats.PurchasedCost after its
	// last tick.
	Cost float64
	// Profit is Revenue − Cost.
	Profit float64
	// Accepted and Decided count the cycle's accepted and decided
	// requests.
	Accepted, Decided int
	// DegradedEpochs counts the cycle's ticks decided by the greedy
	// fallback.
	DegradedEpochs int
}

// RunCycles drives the server as a closed loop over whole billing
// cycles: for each slot of cycles[c] it submits the requests whose Start
// is that slot, in slice order, then ticks once. It returns one result
// per cycle, read from Stats after the cycle's last tick.
//
// The loop owns the server's clock, so it must not run beside Run. It is
// deterministic when the tick budget never binds (an Epoch of an hour,
// say); with a short Epoch a slow policy degrades ticks exactly as the
// daemon's would. RunCycles refuses, with an error and no results, a
// server that is not at a cycle boundary with an empty queue, a request
// the server does not queue (any BatchResult status but queued), and a
// ctx that has expired before a tick; the expiry's error matches
// solvectx.ErrCanceled/ErrDeadline, since a partial cycle has no
// meaningful accounting. A nil ctx never expires.
func (s *Server) RunCycles(ctx context.Context, cycles [][]demand.Request) ([]CycleResult, error) {
	before := s.Stats()
	if before.Slot != 0 || before.QueueDepth != 0 {
		return nil, fmt.Errorf("serve: run cycles: server at slot %d with %d queued, want a cycle boundary with an empty queue",
			before.Slot, before.QueueDepth)
	}
	slots := s.cfg.Slots
	out := make([]CycleResult, 0, len(cycles))
	for c, reqs := range cycles {
		bySlot := make([][]demand.Request, slots)
		for i, r := range reqs {
			if r.Start < 0 || r.Start >= slots {
				return nil, fmt.Errorf("serve: run cycles: cycle %d request %d starts at slot %d of %d", c, i, r.Start, slots)
			}
			bySlot[r.Start] = append(bySlot[r.Start], r)
		}
		for t, batch := range bySlot {
			if err := solvectx.Err(ctx); err != nil {
				return nil, fmt.Errorf("serve: run cycles: cycle %d slot %d: %w", c, t, err)
			}
			for i, res := range s.SubmitAll(batch) {
				if res.Status != StatusQueued {
					return nil, fmt.Errorf("serve: run cycles: cycle %d slot %d: submit %d %s: %s", c, t, i, res.Status, res.Error)
				}
			}
			s.Tick(ctx)
		}
		after := s.Stats()
		r := CycleResult{
			Revenue:        after.Revenue - before.Revenue,
			Cost:           after.PurchasedCost,
			Accepted:       int(after.Accepted - before.Accepted),
			Decided:        int(after.Accepted + after.Rejected - before.Accepted - before.Rejected),
			DegradedEpochs: int(after.DegradedEpochs - before.DegradedEpochs),
		}
		r.Profit = r.Revenue - r.Cost
		out = append(out, r)
		before = after
	}
	return out, nil
}
