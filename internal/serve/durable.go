package serve

import (
	"errors"
	"fmt"
	"time"

	"metis/internal/demand"
	"metis/internal/wal"
)

// walOutcome is one request's decision inside a tick record, in batch
// (id) order. Start is the window start clamped to the deciding slot —
// recovery re-commits exactly what the live tick committed.
type walOutcome struct {
	ID       int64
	Kind     byte // walKindAccept, walKindReject or walKindExpired
	Links    []int
	Start    int
	Reason   string
	Degraded bool
}

// walTick is the redo record of one epoch and the only thing a tick
// commits (commitTick): enough to replay the tick's exact effect on the
// ledger, decisions, revenue and counters without re-running the policy
// (which may have been cut short by the tick budget and is therefore not
// reproducible from inputs alone).
type walTick struct {
	Epoch     int
	Slot      int
	Outcomes  []walOutcome
	Purchased []int
	Degraded  bool
	Policy    *walPolicyDelta
}

// walPolicyDelta is the compact policy state a tick record carries: the
// adopted capacity plan and replan clock. Together with observe-only
// catch-up over the replayed batches this reproduces the metis
// policies' decision-relevant state; the warm incumbent/relaxation are
// caches rebuilt by the next replan.
type walPolicyDelta struct {
	Name       string
	Plan       []int
	HavePlan   bool
	LastReplan int
}

// AppendFence durably appends a fencing-token record; the HA promotion
// path calls it so the token survives in the same log as the state it
// fences.
func AppendFence(l *wal.Log, token uint64) error {
	off, err := l.Append(walRecFence, encodeFence(token))
	if err != nil {
		return err
	}
	return l.WaitDurable(off)
}

// Server roles. A standby refuses submits and ticks until promoted; a
// fenced (ex-)leader refuses both forever — a newer leader owns the
// state now, or its own WAL failed and durability cannot be promised.
const (
	RoleLeader  = "leader"
	RoleStandby = "standby"
	RoleFenced  = "fenced"
)

const (
	roleLeader int32 = iota
	roleStandby
	roleFenced
)

func roleName(r int32) string {
	switch r {
	case roleStandby:
		return RoleStandby
	case roleFenced:
		return RoleFenced
	default:
		return RoleLeader
	}
}

// ErrStandby is returned by Submit on a standby (HTTP 503).
var ErrStandby = errors.New("serve: standby, not accepting requests")

// ErrFenced is returned by Submit on a fenced server (HTTP 503).
var ErrFenced = errors.New("serve: fenced, a newer leader owns this state")

// Role returns the server's current role string.
func (s *Server) Role() string { return roleName(s.role.Load()) }

// SetStandby marks the server a standby: submits and ticks are refused
// until SetLeader (promotion).
func (s *Server) SetStandby() { s.role.Store(roleStandby) }

// SetLeader marks the server the active leader.
func (s *Server) SetLeader() { s.role.Store(roleLeader) }

// Fence permanently steps the server down: submits and ticks are
// refused from now on. Called when a newer fencing token shows up, or
// when the WAL fails mid-tick and durability can no longer be promised.
func (s *Server) Fence() { s.role.Store(roleFenced) }

// Token returns the fencing token this server's state carries.
func (s *Server) Token() uint64 { return s.token.Load() }

// SetToken records the fencing token (minted by the HA layer); it is
// embedded in every snapshot so stale leaders are rejected on stream.
func (s *Server) SetToken(t uint64) { s.token.Store(t) }

// WAL returns the configured write-ahead log (nil when not durable).
func (s *Server) WAL() *wal.Log { return s.cfg.WAL }

// SetWAL attaches a write-ahead log to a server that does not have one
// yet — the HA promotion path opens the mirrored log only when the
// standby becomes a leader. It must run before recovery and serving.
func (s *Server) SetWAL(l *wal.Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.WAL != nil {
		return errors.New("serve: server already has a WAL")
	}
	s.cfg.WAL = l
	return nil
}

func roleErr(r int32) error {
	if r == roleFenced {
		return ErrFenced
	}
	return ErrStandby
}

// RecoverStats summarizes one RecoverWAL pass.
type RecoverStats struct {
	// Arrivals re-queued from the log (SkippedArrivals were already in
	// the restored snapshot).
	Arrivals        int `json:"arrivals"`
	SkippedArrivals int `json:"skippedArrivals"`
	// Ticks re-applied from the log (SkippedTicks predate the restored
	// snapshot's epoch).
	Ticks        int `json:"ticks"`
	SkippedTicks int `json:"skippedTicks"`
	// MaxToken is the largest fencing token seen in the log.
	MaxToken uint64 `json:"maxToken"`
	// End is the clean end of the log.
	End wal.Offset `json:"end"`
}

// RecoverWAL replays the write-ahead log tail into the server: every
// arrival acked before the crash is re-queued (unless the restored
// snapshot already holds it) and every logged tick is committed through
// the live tick's commitTick, then caught up in the policy. It must run
// after Restore (when there is a snapshot) and before serving. The
// replay is idempotent against the snapshot: records at offsets the
// snapshot already covers are skipped by construction (the snapshot's
// recorded WAL offset is where the replay starts).
func (s *Server) RecoverWAL() (RecoverStats, error) {
	var st RecoverStats
	w := s.cfg.WAL
	if w == nil {
		return st, errors.New("serve: RecoverWAL needs a configured WAL")
	}
	now := time.Now() // when this process takes the logged arrivals over
	end, err := wal.Replay(w.Dir(), s.walFrom, func(off wal.Offset, typ byte, body []byte) error {
		switch typ {
		case walRecArrival:
			req, err := decodeArrival(body)
			if err != nil {
				return fmt.Errorf("serve: wal arrival at %v: %w", off, err)
			}
			return s.recoverArrival(req, now, &st)
		case walRecTick:
			tr, err := decodeTick(body)
			if err != nil {
				return fmt.Errorf("serve: wal tick at %v: %w", off, err)
			}
			return s.recoverTick(&tr, &st)
		case walRecFence:
			token, err := decodeFence(body)
			if err != nil {
				return fmt.Errorf("serve: wal fence at %v: %w", off, err)
			}
			if token > st.MaxToken {
				st.MaxToken = token
			}
			if token > s.token.Load() {
				s.token.Store(token)
			}
			return nil
		case 1, 2, 3:
			return fmt.Errorf("serve: wal record type %d at %v is a JSON-era frame (types 1-3); this build reads only the binary frames (types %d-%d) and there is no migration",
				typ, off, walRecArrival, walRecFence)
		default:
			return fmt.Errorf("serve: wal record type %d at %v", typ, off)
		}
	})
	st.End = end
	if sp, ok := s.cfg.Policy.(statefulPolicy); ok && st.Ticks > 0 {
		// The policy's cycle state as of the last replayed tick — what a
		// live tick caches for snapshots. Taken once: it copies every
		// observed request, and nothing reads it during the replay.
		s.mu.Lock()
		s.policyImage = sp.policyState()
		s.mu.Unlock()
	}
	return st, err
}

// recoverArrival re-queues one logged arrival (the request carries the
// server-assigned id), stamped with now. Arrivals the restored snapshot
// already carries (their decision record exists) are skipped — never
// enqueue an acked request twice.
func (s *Server) recoverArrival(req demand.Request, now time.Time, st *RecoverStats) error {
	id := int64(req.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if id >= s.nextID.Load() {
		s.nextID.Store(id + 1)
	}
	if s.Decision(id) != nil {
		st.SkippedArrivals++
		return nil
	}
	if err := req.Validate(s.cfg.Net, s.cfg.Slots); err != nil {
		return fmt.Errorf("serve: wal arrival %d: %w", id, err)
	}
	s.adopt(id, req, now)
	s.nSubmitted.Add(1)
	st.Arrivals++
	return nil
}

// recoverTick re-applies one logged epoch through the live tick's
// commitTick: the exact decisions the live tick committed, in the same
// order, against the same ledger state. Ticks at epochs the snapshot
// already covers are skipped. A tick from a *later* epoch than the
// replay cursor means the log has a gap, and a record that names an
// unknown outcome kind, repeats an id or decides one with no logged
// arrival (a phantom) is refused before the ledger or any record moves.
func (s *Server) recoverTick(tr *walTick, st *RecoverStats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case tr.Epoch < s.epoch:
		st.SkippedTicks++
		return nil
	case tr.Epoch > s.epoch:
		return fmt.Errorf("serve: wal tick gap: log has epoch %d, replay cursor at %d", tr.Epoch, s.epoch)
	}
	if slot := tr.Epoch % s.cfg.Slots; tr.Slot != slot {
		return fmt.Errorf("serve: wal tick %d claims slot %d, cycle says %d", tr.Epoch, tr.Slot, slot)
	}
	want := make(map[int64]bool, len(tr.Outcomes))
	for i := range tr.Outcomes {
		o := &tr.Outcomes[i]
		if o.Kind < walKindAccept || o.Kind > walKindExpired {
			return fmt.Errorf("serve: wal tick %d has outcome kind %d", tr.Epoch, o.Kind)
		}
		if want[o.ID] {
			return fmt.Errorf("serve: wal tick %d repeats id %d", tr.Epoch, o.ID)
		}
		want[o.ID] = true
	}

	// Claim exactly the logged batch out of the queue.
	got := make(map[int64]pending, len(want))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		kept := sh.queue[:0]
		for _, p := range sh.queue {
			if want[p.id] {
				got[p.id] = p
			} else {
				kept = append(kept, p)
			}
		}
		sh.queue = kept
		sh.mu.Unlock()
	}
	if len(got) != len(want) {
		return fmt.Errorf("serve: wal tick %d decides %d request(s) with no logged arrival (phantom)", tr.Epoch, len(want)-len(got))
	}
	gQueueDepth.Set(s.queueDepth.Add(-int64(len(got))))

	// Rebuild the requests as the live tick decided them: server id and,
	// for the live batch, the logged clamped window.
	reqs := make([]demand.Request, len(tr.Outcomes))
	var observed []demand.Request
	for i := range tr.Outcomes {
		o := &tr.Outcomes[i]
		r := got[o.ID].req
		r.ID = int(o.ID)
		if o.Kind != walKindExpired {
			r.Start = o.Start
			observed = append(observed, r)
		}
		reqs[i] = r
	}
	s.wrapCycle(tr.Epoch)
	s.commitTick(tr, reqs)

	// Policy catch-up: observe the replayed live batch (same order, same
	// clamped windows as the live tick) and adopt the logged plan. The
	// warm incumbent/relaxation are rebuilt by the next replan.
	if rp, ok := s.cfg.Policy.(replayPolicy); ok {
		if len(observed) > 0 {
			if err := rp.observe(s.cfg.Net, s.cfg.Slots, observed); err != nil {
				return fmt.Errorf("serve: wal tick %d policy catch-up: %w", tr.Epoch, err)
			}
		}
		if tr.Policy != nil {
			rp.applyReplayDelta(tr.Policy)
		}
	}
	st.Ticks++
	return nil
}
