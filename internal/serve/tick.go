package serve

import (
	"context"
	"time"

	"metis/internal/demand"
	"metis/internal/obs"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/spm"
)

// tick is one epoch in flight: what each phase of Tick hands the next.
type tick struct {
	ctx    context.Context // the decision's budget
	cancel context.CancelFunc
	start  time.Time
	budget time.Duration

	// Set by claim.
	epoch, slot              int
	batch                    []pending
	revBefore, costBefore    float64
	replans, replansDegraded int64   // the policy's replan counts, for the scorecard row
	waitSum, waitMax         float64 // queue wait, seconds

	// Set by decide.
	rec            walTick
	reqs           []demand.Request // reqs[k] is the request rec.Outcomes[k] decides
	frame          []byte           // rec encoded, when there is a WAL
	solved, failed bool
	now            time.Time // decision time: the end of every arrival's decision latency
}

// Tick processes one epoch synchronously, in five phases. claim takes
// the queued batch (the bench's serve.tick_pre); decide runs the policy
// under the tick budget into the tick's redo record (serve.solve);
// logTick makes the record durable when there is a WAL, commitTick
// applies it, and record writes the tick's latencies, scorecard row and
// span (together serve.tick_post). Tick is the unit the Run loop
// schedules; tests call it directly for deterministic epochs.
func (s *Server) Tick(ctx context.Context) {
	if s.role.Load() != roleLeader {
		// A standby has no authority to decide; a fenced server lost it.
		return
	}
	t := s.claim(ctx)
	defer t.cancel()
	s.decide(t)
	s.mu.Lock()
	if !s.logTick(t) {
		s.mu.Unlock()
		return
	}
	s.commitTick(&t.rec, t.reqs)
	s.record(t) // releases s.mu
}

// claim opens the tick: it takes the queued batch, still counted in
// Stats' and Health's queue depth through s.nDeciding until the tick
// ends, and observes each arrival's queue wait (arrival → batch claim)
// into the server's histogram and the scorecard row's aggregate.
func (s *Server) claim(ctx context.Context) *tick {
	t := &tick{start: time.Now()}
	t.budget = time.Duration(float64(s.cfg.Epoch) * s.cfg.TickBudget)
	if ctx == nil {
		ctx = context.Background()
	}
	t.ctx, t.cancel = context.WithTimeout(ctx, t.budget)
	t.replans, t.replansDegraded = s.replanCounts()

	s.mu.Lock()
	t.epoch = s.epoch
	t.slot = t.epoch % s.cfg.Slots
	s.wrapCycle(t.epoch)
	t.batch = s.claimIntake(s.cfg.MaxBatch)
	s.nDeciding = len(t.batch)
	s.queueDepth.Add(-int64(len(t.batch)))
	t.revBefore, t.costBefore = s.revenue, s.led.Cost()
	s.mu.Unlock()

	for _, p := range t.batch {
		w := t.start.Sub(p.at).Seconds()
		s.queueWait.Observe(w)
		t.waitSum += w
		if w > t.waitMax {
			t.waitMax = w
		}
	}
	return t
}

// decide runs the policy over the claimed batch (solve) and, when there
// is a WAL, encodes the redo record with the policy's plan delta — all
// before logTick takes s.mu.
func (s *Server) decide(t *tick) {
	t.rec, t.reqs, t.solved, t.failed = s.solve(t.ctx, t.batch, t.epoch, t.slot)
	if s.cfg.WAL != nil {
		if rp, ok := s.cfg.Policy.(replayPolicy); ok {
			t.rec.Policy = rp.replayDelta()
		}
		t.frame = encodeTick(&t.rec)
	}
	t.now = time.Now()
}

// solve runs the policy over the claimed batch under the tick budget
// and returns the tick's redo record, one outcome per batch position.
// reqs[k] is the request outcome k decides: server id, window clamped to
// the deciding slot. solved reports that the policy ran, failed that it
// returned an error other than the budget's.
func (s *Server) solve(ctx context.Context, batch []pending, epoch, slot int) (tr walTick, reqs []demand.Request, solved, failed bool) {
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
	inst, err := sched.NewInstance(s.cfg.Net, s.cfg.Slots, liveReqs, sched.DefaultPathsPerRequest)
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
	if s.cfg.Tracer != nil {
		f := obs.Fields{
			"epoch": epoch, "slot": slot, "policy": s.cfg.Policy.Name(),
			"requests": len(live), "degraded": tr.Degraded,
		}
		if err != nil {
			f["error"] = err.Error()
		}
		obs.Span(s.cfg.Tracer, "serve.solve", solveStart, f)
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

// logTick makes the tick's redo record durable before any of its
// decisions become visible, and reports whether it did (true without a
// WAL). Appending under s.mu orders tick records as their commits are
// ordered. The fsync batches with concurrent submit acks (group
// commit); in-flight submit appends interleave freely before the
// record — their arrivals are not part of this batch.
//
// On failure durability is lost: the server fences instead of handing
// out undurable decisions, and the claimed batch goes back to the queue
// undecided. Its arrivals are on disk (or the client never got an ack),
// so a restart recovers them. Callers hold s.mu.
func (s *Server) logTick(t *tick) bool {
	if t.frame == nil {
		return true
	}
	off, err := s.cfg.WAL.Append(walRecTick, t.frame)
	if err == nil {
		err = s.cfg.WAL.WaitDurable(off)
	}
	if err == nil {
		return true
	}
	s.Fence()
	s.lastCheckErr = "wal failed, server fenced: " + err.Error()
	s.requeue(t.batch...)
	s.nDeciding = 0
	return false
}

// commitTick applies one decided tick: the accepted requests and the
// purchases to the ledger, then every decision record, revenue and the
// decision counters, the -check sweep, history pruning and the epoch
// advance. Tick calls it with the record it has just logged and
// ApplyLog with the record it has just read, so a recovered server's
// state is the leader's. reqs[i] is the request tr.Outcomes[i] decides,
// window clamped. Callers hold s.mu.
func (s *Server) commitTick(tr *walTick, reqs []demand.Request) {
	// Fold the epoch's accepted requests into the ledger in one batch
	// before any decision shows.
	entries := make([]CommitEntry, 0, len(tr.Outcomes))
	for i := range tr.Outcomes {
		if o := &tr.Outcomes[i]; o.Kind == walKindAccept {
			entries = append(entries, CommitEntry{Req: reqs[i], Links: o.Links})
		}
	}
	s.led.CommitBatch(entries, 1)
	if tr.Purchased != nil {
		// Adopt plan-driven provisioning beyond what the commits bought
		// (recoverTick has checked a logged vector's length).
		s.led.Provision(tr.Purchased)
	}

	cycle := tr.Epoch / s.cfg.Slots
	for i := range tr.Outcomes {
		o := &tr.Outcomes[i]
		status, reason := StatusRejected, o.Reason
		if o.Kind == walKindAccept {
			status = StatusAccepted
			s.nAccepted++
			s.revenue += reqs[i].Value
		} else {
			s.nRejected++
		}
		if o.Kind == walKindExpired {
			reason = "window expired before decision"
		}
		if o.Degraded {
			s.nDegradedDecisions++
		}
		ds := s.dshard(o.ID)
		ds.mu.Lock()
		if d, ok := ds.m[o.ID]; ok { // still retained
			d.Status, d.Reason, d.Links, d.Degraded = status, reason, o.Links, o.Degraded
			d.Epoch, d.Cycle, d.Slot = tr.Epoch, cycle, tr.Slot
		}
		ds.mu.Unlock()
	}
	if tr.Degraded {
		s.nDegraded++
	}
	if s.cfg.Check {
		// Invariant sweep over the committed state: no per-(link, slot)
		// capacity overcommit, purchases covering peaks. A failure is
		// recorded, never fatal — the replay smokes assert the counter.
		if err := spm.CheckLedger(s.led.Loads(), s.led.Purchased()); err != nil {
			s.nCheckFailures++
			s.lastCheckErr = err.Error()
		}
	}
	// Bound the decision history: drop the oldest records once the map
	// outgrows the retention window. Only ids below nextID − retention
	// go, and retention exceeds the queue limit, so a queued request is
	// never pruned — nor, during recovery, an id recoverArrival must
	// still recognise as a duplicate.
	for retention := s.cfg.retention(); s.nextID.Load()-s.pruneFrom > retention; s.pruneFrom++ {
		ds := s.dshard(s.pruneFrom)
		ds.mu.Lock()
		delete(ds.m, s.pruneFrom)
		ds.mu.Unlock()
	}
	s.epoch++
}

// record closes a committed tick. Under s.mu, as commitTick left it, it
// observes each decision's latency (arrival → decision), counts an
// overrun and builds the scorecard row. It then releases s.mu and emits
// the serve.epoch span and pushes the row, neither of which may hold up
// a reader.
func (s *Server) record(t *tick) {
	s.nDeciding = 0
	var nAccepted, nExpired int
	for k := range t.rec.Outcomes {
		o := &t.rec.Outcomes[k]
		h := &s.rejectedLat
		switch {
		case o.Degraded:
			h = &s.degradedLat
		case o.Kind == walKindAccept:
			h = &s.acceptedLat
		}
		h.Observe(t.now.Sub(t.batch[k].at).Seconds())
		switch o.Kind {
		case walKindAccept:
			nAccepted++
		case walKindExpired:
			nExpired++
		}
	}
	elapsed := time.Since(t.start)
	if elapsed > t.budget {
		s.nOverruns++
	}

	rec := s.epochRecord(t, nAccepted, nExpired, elapsed)
	switch {
	case t.failed:
		rec.SolveStatus = SolveError
	case t.rec.Degraded:
		rec.SolveStatus = SolveDegradedFallback
	case rec.ReplansDegraded > 0:
		rec.SolveStatus = SolveReplanDegraded
	case t.solved:
		rec.SolveStatus = SolveOK
	default:
		rec.SolveStatus = SolveIdle
	}
	s.shedMark = s.nShed.Load()
	s.lastTickEnd = t.now
	s.mu.Unlock()

	if s.cfg.Tracer != nil {
		obs.Span(s.cfg.Tracer, "serve.epoch", t.start, obs.Fields{
			"epoch":       rec.Epoch,
			"cycle":       rec.Cycle,
			"slot":        rec.Slot,
			"batch":       rec.Batch,
			"accepted":    rec.Accepted,
			"rejected":    rec.Rejected,
			"expired":     rec.Expired,
			"shed":        rec.Shed,
			"degraded":    rec.Degraded,
			"status":      rec.SolveStatus,
			"policy":      rec.Policy,
			"budget_ms":   rec.BudgetMillis,
			"elapsed_ms":  rec.ElapsedMillis,
			"queue_depth": rec.QueueDepth,
		})
	}
	s.score.push(rec)
}

// epochRecord builds the tick's scorecard row from the committed state,
// less its status. Callers hold s.mu.
func (s *Server) epochRecord(t *tick, nAccepted, nExpired int, elapsed time.Duration) EpochRecord {
	replans, replansDegraded := s.replanCounts()
	rec := EpochRecord{
		Epoch:         t.epoch,
		Cycle:         t.epoch / s.cfg.Slots,
		Slot:          t.slot,
		Policy:        s.cfg.Policy.Name(),
		Role:          roleName(s.role.Load()),
		UnixMillis:    t.now.UnixMilli(),
		Batch:         len(t.batch),
		Accepted:      nAccepted,
		Rejected:      len(t.batch) - nAccepted - nExpired,
		Expired:       nExpired,
		Shed:          s.nShed.Load() - s.shedMark,
		QueueDepth:    int(s.queueDepth.Load()),
		Degraded:      t.rec.Degraded,
		Overrun:       elapsed > t.budget,
		BudgetMillis:  float64(t.budget.Microseconds()) / 1e3,
		ElapsedMillis: float64(elapsed.Microseconds()) / 1e3,
		RevenueDelta:  s.revenue - t.revBefore,
		CostDelta:     s.led.Cost() - t.costBefore,

		Replans:         replans - t.replans,
		ReplansDegraded: replansDegraded - t.replansDegraded,
	}
	rec.ProfitDelta = rec.RevenueDelta - rec.CostDelta
	if len(t.batch) > 0 {
		rec.QueueWaitMeanMillis = t.waitSum / float64(len(t.batch)) * 1e3
		rec.QueueWaitMaxMillis = t.waitMax * 1e3
	}
	return rec
}

// replanCounts reads the policy's own replan counts; a policy that
// never replans has none.
func (s *Server) replanCounts() (replans, degraded int64) {
	if rc, ok := s.cfg.Policy.(interface{ replanCounts() (int64, int64) }); ok {
		return rc.replanCounts()
	}
	return 0, 0
}

// wrapCycle opens a new billing cycle when epoch is the first slot of
// one (after the first): a fresh ledger and cycle-scoped policy state,
// since purchases do not carry over. It reports whether it did. Callers
// hold s.mu.
func (s *Server) wrapCycle(epoch int) bool {
	if epoch == 0 || epoch%s.cfg.Slots != 0 {
		return false
	}
	s.led.Reset()
	s.cfg.Policy.Reset()
	return true
}
