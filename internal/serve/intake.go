package serve

import (
	"cmp"
	"errors"
	"fmt"
	"net/http"
	"slices"
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

// intake is the arrival queue. A submit assigns its batch's ids, logs
// their arrival frames and appends them under mu, so the queue is in id
// order by construction and a tick claims a prefix of it.
type intake struct {
	mu    sync.Mutex
	queue []pending
	frame []byte // the arrival frame being logged, reused under mu
}

// decisionPage is the number of consecutive ids on a decision-log page.
const decisionPage = 1024

// decisionLog holds the decision records by value. Ids are dense and
// pruned from the bottom, so a page is allocated when its first id is
// recorded and dropped once all its ids are pruned. A zero record (ID 0)
// is an id pruned or never recorded, such as one a failed WAL append burned.
type decisionLog struct {
	mu    sync.RWMutex
	first int64 // page number of pages[0], whose ids start at first·decisionPage
	pages []*[decisionPage]Decision
}

// at returns id's record, nil for a pruned, unknown or non-positive id;
// callers hold mu.
func (l *decisionLog) at(id int64) *Decision {
	if i := id/decisionPage - l.first; id >= 1 && i >= 0 && i < int64(len(l.pages)) && l.pages[i] != nil {
		if d := &l.pages[i][id%decisionPage]; d.ID != 0 {
			return d
		}
	}
	return nil
}

// queue records each of ps (ids ≥ 1) as queued, allocating pages.
func (l *decisionLog) queue(ps ...pending) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, q := range ps {
		p := q.id / decisionPage
		if p < l.first { // a replayed log's arrival frames out of id order
			l.pages, l.first = slices.Insert(l.pages, 0, make([]*[decisionPage]Decision, l.first-p)...), p
		}
		if n := p - l.first + 1 - int64(len(l.pages)); n > 0 {
			l.pages = append(l.pages, make([]*[decisionPage]Decision, n)...)
		}
		pg := &l.pages[p-l.first]
		if *pg == nil {
			*pg = new([decisionPage]Decision)
		}
		(*pg)[q.id%decisionPage] = Decision{ID: q.id, Status: StatusQueued, Request: q.req}
	}
}

// prune drops every record below id: the pages wholly below it go, and
// the rest of them are cleared. Callers hold mu for writing.
func (l *decisionLog) prune(id int64) {
	for len(l.pages) > 0 && (l.first+1)*decisionPage <= id {
		l.pages[0] = nil // let the collector have it
		l.pages, l.first = l.pages[1:], l.first+1
	}
	if len(l.pages) > 0 && l.pages[0] != nil && l.first*decisionPage < id {
		clear(l.pages[0][:id-l.first*decisionPage])
	}
}

// ErrDraining is returned by Submit once drain has begun.
var ErrDraining = errors.New("serve: draining, not accepting new requests")

// ErrQueueFull is returned by Submit when the arrival queue is at its
// limit; the HTTP layer maps it to 429.
var ErrQueueFull = errors.New("serve: arrival queue full")

// Submit validates and enqueues one reservation request for the next
// epoch tick: a batch of one. The request's ID field is ignored; the
// server assigns its own. On success the returned decision has
// StatusQueued.
func (s *Server) Submit(req demand.Request) (*Decision, error) {
	var out [1]BatchResult
	off, err := s.admit([]demand.Request{req}, time.Now(), out[:])
	if err == nil {
		err = s.walWait(off) // ack once fsynced, batched with every in-flight wait
	}
	if err != nil {
		return nil, err
	}
	req.ID = int(out[0].ID)
	return &Decision{ID: out[0].ID, Status: StatusQueued, Request: req}, nil
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

// admit validates reqs and queues the valid ones in order, filling
// out[i] for reqs[i]: the assigned id of a queued request, the refusal
// of the rest. It returns the WAL offset the acks must wait for and the
// last refusal's error. The batch takes the intake lock once: ids,
// arrival frames, the queue and the decision records are written under
// it. admit never takes s.mu.
func (s *Server) admit(reqs []demand.Request, now time.Time, out []BatchResult) (off wal.Offset, last error) {
	in := &s.in
	in.mu.Lock()
	defer in.mu.Unlock()
	first := len(in.queue)
	for i := range reqs {
		req := reqs[i]
		req.ID = 0 // assigned below; validate with a neutral id
		var status string
		var err error
		if r := s.role.Load(); r != roleLeader {
			status, err = roleName(r), roleErr(r)
		} else if s.draining.Load() {
			status, err = "draining", ErrDraining
		} else if err = req.Validate(s.cfg.Net, s.cfg.Slots); err != nil {
			status = "invalid"
			cInvalid.Inc()
		} else if s.queueDepth.Add(1) > int64(s.cfg.QueueLimit) {
			// The depth slot is reserved before the id, so a shed never
			// burns an id.
			s.queueDepth.Add(-1)
			s.nShed.Add(1)
			status, err = "shed", ErrQueueFull
			if s.cfg.Tracer != nil {
				obs.Event(s.cfg.Tracer, "serve.arrival", obs.Fields{"outcome": "shed"})
			}
		}
		if err != nil {
			out[i], last = BatchResult{Status: status, Error: err.Error()}, err
			continue
		}
		req.ID = int(s.nextID.Add(1) - 1)
		// The arrival record goes to the log before the request is
		// queued, so any tick that decides it is logged after it. The
		// durability wait happens in the caller.
		if w := s.cfg.WAL; w != nil {
			in.frame = appendArrival(in.frame[:0], &req)
			o, err := w.Append(walRecArrival, in.frame)
			if err != nil {
				s.queueDepth.Add(-1)
				last = fmt.Errorf("serve: wal append: %w", err)
				out[i] = BatchResult{Status: "error", Error: last.Error()}
				continue
			}
			off = o
		}
		in.queue = append(in.queue, pending{id: int64(req.ID), req: req, at: now})
		out[i] = BatchResult{ID: int64(req.ID), Status: StatusQueued}
		if s.cfg.Tracer != nil {
			obs.Event(s.cfg.Tracer, "serve.arrival", obs.Fields{
				"id": req.ID, "outcome": "queued", "queue_depth": s.queueDepth.Load(),
			})
		}
	}
	s.nSubmitted.Add(int64(len(in.queue) - first))
	// The records go in before in.mu is released: a tick cannot claim
	// an arrival whose record is not there yet.
	s.dlog.queue(in.queue[first:]...)
	return off, last
}

// BatchResult is one entry of a batch-submit response: the assigned id
// for a queued request, or why it was not queued. Status is one of
//
//   - "queued": logged and waiting for a tick (ID is set);
//   - "shed": the arrival queue was full;
//   - "invalid": the request failed validation;
//   - "draining": the server has begun to drain;
//   - "standby" or "fenced": the server's role refuses submits;
//   - "error": the WAL append or the batch's fsync failed (after an
//     fsync failure, ID is the id the request was given).
type BatchResult struct {
	ID     int64  `json:"id,omitempty"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// SubmitAll enqueues a batch of requests in order, returning one result
// per request. Outcomes are independent: a shed or invalid entry does
// not stop the rest of the batch.
func (s *Server) SubmitAll(reqs []demand.Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	off, _ := s.admit(reqs, time.Now(), out)
	// One durability wait covers the whole batch — the point of group
	// commit: a 500-request batch costs one fsync, not 500.
	if err := s.walWait(off); err != nil {
		for i := range out {
			if out[i].Status == StatusQueued {
				out[i] = BatchResult{ID: out[i].ID, Status: "error", Error: err.Error()}
			}
		}
	}
	return out
}

// claimIntake takes the queued arrivals in id order: all of them, or
// the oldest max when max > 0, the rest staying at the queue's front. A
// claimed prefix shares the queue's array, which appends (past its end)
// and requeue's sort (inside the queue) never touch. Callers hold s.mu.
func (s *Server) claimIntake(max int) []pending {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	batch := s.in.queue
	if max > 0 && len(batch) > max {
		batch, s.in.queue = batch[:max:max], batch[max:]
	} else {
		s.in.queue = make([]pending, 0, len(batch))
	}
	return batch
}

// requeue puts arrivals, in id order, back in the intake queue and
// counts them in the queue depth. A fenced tick's batch lands behind
// higher ids, and so may an arrival recovery takes over from a log
// written with a sharded queue; the queue is then sorted back.
func (s *Server) requeue(ps ...pending) {
	s.in.mu.Lock()
	n := len(s.in.queue)
	s.in.queue = append(s.in.queue, ps...)
	if n > 0 && len(ps) > 0 && ps[0].id < s.in.queue[n-1].id {
		slices.SortFunc(s.in.queue, func(a, b pending) int { return cmp.Compare(a.id, b.id) })
	}
	s.in.mu.Unlock()
	s.queueDepth.Add(int64(len(ps)))
}

// Decision returns the decision record for id, or nil.
func (s *Server) Decision(id int64) *Decision {
	s.dlog.mu.RLock()
	defer s.dlog.mu.RUnlock()
	if d := s.dlog.at(id); d != nil {
		cp := *d
		cp.Links = append([]int(nil), d.Links...)
		return &cp
	}
	return nil
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
