package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"metis/internal/demand"
	"metis/internal/obs"
	"metis/internal/wal"
)

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
		if s.cfg.Tracer != nil {
			obs.Event(s.cfg.Tracer, "serve.arrival", obs.Fields{"outcome": "shed"})
		}
		return nil, wal.Offset{}, ErrQueueFull
	}
	id := s.nextID.Add(1) - 1
	req.ID = int(id)
	// The arrival record goes to the log before the request is queued,
	// so any tick that decides it is logged after it. The durability
	// wait happens in the caller.
	var off wal.Offset
	if w := s.cfg.WAL; w != nil {
		var err error
		off, err = w.Append(walRecArrival, encodeArrival(&req))
		if err != nil {
			s.queueDepth.Add(-1)
			return nil, wal.Offset{}, fmt.Errorf("serve: wal append: %w", err)
		}
	}
	d := s.queueDecision(id, req)
	s.push(pending{id: id, req: req, at: now})
	s.nSubmitted.Add(1)
	cSubmitted.Inc()
	depth := s.queueDepth.Load()
	gQueueDepth.Set(depth)
	if s.cfg.Tracer != nil {
		obs.Event(s.cfg.Tracer, "serve.arrival", obs.Fields{
			"id": id, "outcome": "queued", "queue_depth": depth,
		})
	}
	return &d, off, nil
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
			s.push(p)
		}
		batch = batch[:max]
	}
	return batch
}

// push appends p to its intake shard's queue.
func (s *Server) push(p pending) {
	sh := &s.shards[uint64(p.id)%intakeShards]
	sh.mu.Lock()
	sh.queue = append(sh.queue, p)
	sh.mu.Unlock()
}

// requeue puts arrivals back in the intake queue, counting them in the
// queue depth and its gauge: a fenced tick's batch, or an arrival
// recovery takes over (adopt).
func (s *Server) requeue(ps ...pending) {
	for _, p := range ps {
		s.push(p)
	}
	gQueueDepth.Set(s.queueDepth.Add(int64(len(ps))))
}

// adopt queues an arrival recovery takes over, from a snapshot's queue
// or the log, stamped with at, the time recovery took it over: its
// queue wait and decision latency count from then. A standby applying
// its mirror stamps each arrival when the round that brought it
// applies it. Callers hold s.mu.
func (s *Server) adopt(id int64, req demand.Request, at time.Time) {
	s.queueDecision(id, req)
	s.requeue(pending{id: id, req: req, at: at})
	if id < s.pruneFrom {
		s.pruneFrom = id
	}
}

// queueDecision records id as queued and returns a copy of the record.
// The copy is taken under the shard lock: once the record is in the map
// a concurrent tick may claim the request and mutate it (also under
// this lock), so an unsynchronized read races.
func (s *Server) queueDecision(id int64, req demand.Request) Decision {
	d := &Decision{ID: id, Status: StatusQueued, Request: req}
	ds := s.dshard(id)
	ds.mu.Lock()
	ds.m[id] = d
	cp := *d
	ds.mu.Unlock()
	return cp
}

// dshard returns id's decision shard; an id the server never assigns
// (zero or negative) maps to a shard like any other and is simply not
// found there.
func (s *Server) dshard(id int64) *decisionShard {
	return &s.dshards[uint64(id)%decisionShards]
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
