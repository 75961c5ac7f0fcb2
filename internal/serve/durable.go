package serve

import (
	"errors"
	"fmt"
	"slices"
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

// AppendFence durably appends a fencing-token record. The log is the
// token's only home: a leader's first token and every promotion's are
// fence frames, so a standby mirrors them with the state they fence.
func AppendFence(l *wal.Log, token uint64) error {
	off, err := l.Append(walRecFence, encodeFence(token))
	if err != nil {
		return err
	}
	return l.WaitDurable(off)
}

// LoggedToken returns the largest fencing token in the log in dir, 0
// when it holds no fence frame.
func LoggedToken(dir string) (uint64, error) {
	var top uint64
	_, err := wal.Replay(dir, wal.Offset{}, func(off wal.Offset, typ byte, body []byte) error {
		if typ != walRecFence {
			return nil
		}
		token, err := decodeFence(body)
		if err != nil {
			return fmt.Errorf("serve: wal fence at %v: %w", off, err)
		}
		top = max(top, token)
		return nil
	})
	return top, err
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

// SetToken records the fencing token (minted by the HA layer, which
// also logs it as a fence frame so it survives in the log it fences).
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

// RecoverStats summarizes one ApplyLog pass.
type RecoverStats struct {
	// Arrivals re-queued from the log.
	Arrivals int `json:"arrivals"`
	// Ticks re-applied from the log.
	Ticks int `json:"ticks"`
	// End is the clean end of the log: where the next pass starts.
	End wal.Offset `json:"end"`
}

// RecoverWAL is ApplyLog over the server's own write-ahead log: a
// restarted leader replays it from the start, a promoted standby only
// what its replication rounds had not applied yet.
func (s *Server) RecoverWAL() (RecoverStats, error) {
	if s.cfg.WAL == nil {
		return RecoverStats{}, errors.New("serve: RecoverWAL needs a configured WAL")
	}
	return s.ApplyLog(s.cfg.WAL.Dir())
}

// ApplyLog replays the records of the log in dir past the server's
// cursor and moves the cursor to the log's clean end (on error, past the
// last record that applied), so the next pass resumes there: a standby
// calls it after every replication round. Every acked arrival is
// re-queued and every logged tick committed through the live tick's
// commitTick; the policy catches up once, at the end of the pass. A
// torn tail ends the pass cleanly. A server holding state the log did
// not give it (it has already served) is refused.
func (s *Server) ApplyLog(dir string) (RecoverStats, error) {
	var st RecoverStats
	s.mu.Lock()
	from, other := s.walFrom, s.walFrom.IsZero() && s.hasState()
	s.mu.Unlock()
	if other {
		return st, errors.New("serve: ApplyLog onto a server whose state did not come from the log (it has already served)")
	}
	var cu *catchUp
	if rp, ok := s.cfg.Policy.(replayPolicy); ok {
		cu = &catchUp{rp: rp}
	}
	now := time.Now() // when this process takes the logged arrivals over
	applied := from
	end, err := wal.Replay(dir, from, func(off wal.Offset, typ byte, body []byte) error {
		var err error
		switch typ {
		case walRecArrival:
			var req demand.Request
			if req, err = decodeArrival(body); err != nil {
				return fmt.Errorf("serve: wal arrival at %v: %w", off, err)
			}
			err = s.recoverArrival(req, off, now, &st)
		case walRecTick:
			var tr walTick
			if tr, err = decodeTick(body); err != nil {
				return fmt.Errorf("serve: wal tick at %v: %w", off, err)
			}
			err = s.recoverTick(&tr, off, &st, cu)
		case walRecFence:
			var token uint64
			if token, err = decodeFence(body); err != nil {
				return fmt.Errorf("serve: wal fence at %v: %w", off, err)
			}
			s.token.Store(max(s.token.Load(), token))
		case 1, 2, 3:
			return fmt.Errorf("serve: wal record type %d at %v is a JSON-era frame (types 1-3); this build reads only the binary frames (types %d-%d) and there is no migration",
				typ, off, walRecArrival, walRecFence)
		default:
			return fmt.Errorf("serve: wal record type %d at %v", typ, off)
		}
		if err == nil {
			applied = off
		}
		return err
	})
	if err == nil {
		applied = end
	}
	if cerr := s.catchUp(cu, st.Ticks); err == nil {
		err = cerr
	}
	s.mu.Lock()
	s.walFrom = applied
	s.mu.Unlock()
	st.End = applied
	return st, err
}

// hasState reports whether the server holds daemon time, an assigned id
// or a queued request. Callers hold s.mu.
func (s *Server) hasState() bool {
	return s.epoch != 0 || s.nextID.Load() != 1 || s.queueDepth.Load() != 0
}

// catchUp is what one ApplyLog pass gathers for the policy: the live
// batches of the ticks it applied in the cycle it ends in, in order,
// and the last plan delta.
type catchUp struct {
	rp       replayPolicy
	observed []demand.Request
	delta    *walPolicyDelta
}

// catchUp observes the pass's live batches joined and adopts its last
// plan delta. No replan runs during a replay, so the replanner has no
// session and observing the joined batches builds the same instance as
// observing them tick by tick; the warm incumbent and relaxation are
// caches the next replan rebuilds.
func (s *Server) catchUp(cu *catchUp, ticks int) error {
	if cu == nil || ticks == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(cu.observed) > 0 {
		if err := cu.rp.observe(s.cfg.Net, s.cfg.Slots, cu.observed); err != nil {
			return fmt.Errorf("serve: wal policy catch-up: %w", err)
		}
	}
	if cu.delta != nil {
		cu.rp.applyReplayDelta(cu.delta)
	}
	return nil
}

// recoverArrival re-queues one logged arrival (the request carries the
// server-assigned id), stamped with now, when the pass took it over. A
// frame with an id below 1, which the server never assigns, or a second
// frame for a known id can only come from a damaged log and is refused:
// an acked request is never enqueued twice.
func (s *Server) recoverArrival(req demand.Request, off wal.Offset, now time.Time, st *RecoverStats) error {
	id := int64(req.ID)
	if id < 1 {
		return fmt.Errorf("serve: wal arrival at %v: id %d was never assigned", off, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id >= s.nextID.Load() {
		s.nextID.Store(id + 1)
	}
	s.dlog.mu.RLock()
	known := s.dlog.at(id) != nil
	s.dlog.mu.RUnlock()
	if known {
		return fmt.Errorf("serve: wal arrival at %v: id %d is already known (duplicate frame)", off, id)
	}
	if err := req.Validate(s.cfg.Net, s.cfg.Slots); err != nil {
		return fmt.Errorf("serve: wal arrival %d at %v: %w", id, off, err)
	}
	p := pending{id: id, req: req, at: now}
	s.dlog.queue(p)
	s.requeue(p)
	s.nSubmitted.Add(1)
	st.Arrivals++
	return nil
}

// recoverTick re-applies one logged epoch through the live tick's
// commitTick: the exact decisions the live tick committed, in the same
// order, against the same ledger state. The tick must be the one the
// replay cursor expects: an epoch already applied is a duplicate frame
// and a later one a gap. A record that names an unknown outcome kind,
// repeats an id, buys on a link count other than the network's, decides
// an id with no logged arrival (a phantom) or does not fit its requests
// on the configured network (see fits) is refused before the ledger or
// any record moves, and the queue keeps its batch. The tick's live batch
// and plan delta go to the pass's policy catch-up (cu, nil for a policy
// with no replay state).
func (s *Server) recoverTick(tr *walTick, off wal.Offset, st *RecoverStats, cu *catchUp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case tr.Epoch < s.epoch:
		return fmt.Errorf("serve: wal tick at %v: epoch %d is already applied (replay cursor at %d)", off, tr.Epoch, s.epoch)
	case tr.Epoch > s.epoch:
		return fmt.Errorf("serve: wal tick gap at %v: log has epoch %d, replay cursor at %d", off, tr.Epoch, s.epoch)
	}
	if slot := tr.Epoch % s.cfg.Slots; tr.Slot != slot {
		return fmt.Errorf("serve: wal tick %d at %v claims slot %d, cycle says %d", tr.Epoch, off, tr.Slot, slot)
	}
	if n := len(tr.Purchased); n != 0 && n != s.cfg.Net.NumLinks() {
		return fmt.Errorf("serve: wal tick %d at %v buys on %d links, %s has %d", tr.Epoch, off, n, s.cfg.Net.Name(), s.cfg.Net.NumLinks())
	}
	want := make(map[int64]bool, len(tr.Outcomes))
	for i := range tr.Outcomes {
		o := &tr.Outcomes[i]
		if o.Kind < walKindAccept || o.Kind > walKindExpired {
			return fmt.Errorf("serve: wal tick %d at %v has outcome kind %d", tr.Epoch, off, o.Kind)
		}
		if want[o.ID] {
			return fmt.Errorf("serve: wal tick %d at %v repeats id %d", tr.Epoch, off, o.ID)
		}
		want[o.ID] = true
	}

	// Claim exactly the logged batch out of the queue, if it fits.
	got := make(map[int64]pending, len(want))
	s.in.mu.Lock()
	for _, p := range s.in.queue {
		if want[p.id] {
			got[p.id] = p
		}
	}
	err := s.fits(tr, got, len(want))
	if err == nil {
		s.in.queue = slices.DeleteFunc(s.in.queue, func(p pending) bool { return want[p.id] })
	}
	s.in.mu.Unlock()
	if err != nil {
		return fmt.Errorf("serve: wal tick %d at %v %w", tr.Epoch, off, err)
	}
	s.queueDepth.Add(-int64(len(got)))

	if s.wrapCycle(tr.Epoch) && cu != nil {
		// The policy was reset: what the pass gathered belongs to the
		// cycle that just ended.
		cu.observed, cu.delta = nil, nil
	}
	// Rebuild the requests as the live tick decided them: server id and,
	// for the live batch, the logged clamped window.
	reqs := make([]demand.Request, len(tr.Outcomes))
	for i := range tr.Outcomes {
		o := &tr.Outcomes[i]
		r := got[o.ID].req
		r.ID = int(o.ID)
		if o.Kind != walKindExpired {
			r.Start = o.Start
			if cu != nil {
				cu.observed = append(cu.observed, r)
			}
		}
		reqs[i] = r
	}
	s.commitTick(tr, reqs)
	if cu != nil && tr.Policy != nil {
		cu.delta = tr.Policy
	}
	st.Ticks++
	return nil
}

// fits reports why a logged tick does not fit the batch it claimed (got,
// out of n logged ids) on the configured network: an id with no logged
// arrival, a live outcome whose logged start lies outside its request's
// window, or an accept whose links are not a path from the request's
// source to its destination. Committing any of these would index the
// ledger out of range or load links the leader never used: a log
// written on another network fails here. Callers hold s.mu.
func (s *Server) fits(tr *walTick, got map[int64]pending, n int) error {
	if len(got) != n {
		return fmt.Errorf("decides %d request(s) with no logged arrival (phantom)", n-len(got))
	}
	for i := range tr.Outcomes {
		o := &tr.Outcomes[i]
		if o.Kind == walKindExpired {
			continue
		}
		r := got[o.ID].req
		if o.Start < r.Start || o.Start > r.End {
			return fmt.Errorf("starts id %d at slot %d, outside its window [%d, %d]", o.ID, o.Start, r.Start, r.End)
		}
		if o.Kind != walKindAccept {
			continue
		}
		if err := s.cfg.Net.CheckWalk(o.Links, r.Src, r.Dst); err != nil {
			return fmt.Errorf("accepts id %d on links %v: %w", o.ID, o.Links, err)
		}
	}
	return nil
}
