package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"metis/internal/demand"
	"metis/internal/online"
	"metis/internal/sched"
	"metis/internal/wal"
)

// TestIntakeContract pins what the two admission endpoints accept and
// how they answer, independent of the decoder behind them: status codes
// and result shapes, never error text. It was written against the
// encoding/json intake and must pass unedited on any replacement.
func TestIntakeContract(t *testing.T) {
	const (
		single = "/v1/requests"
		batch  = "/v1/requests/batch"
		ok     = `{"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`
	)
	cases := []struct {
		name string
		path string
		body string
		code int
		// statuses are the per-entry outcomes of a 200 batch reply.
		statuses []string
		// src is the accepted request's source DC (-1: not checked).
		src int
		// field is the blamed field of a 422 single reply.
		field string
	}{
		{name: "malformed", path: single, body: `{"src":0,`, code: 400},
		{name: "malformed", path: batch, body: `[{"src":0,`, code: 400},
		{name: "malformed/bad literal", path: batch, body: `[nul]`, code: 400},
		{name: "malformed/leading zero", path: single, body: `{"src":01,"dst":1}`, code: 400},
		{name: "malformed/trailing comma", path: batch, body: `[` + ok + `,]`, code: 400},
		{name: "empty", path: single, body: ``, code: 400},
		{name: "empty", path: batch, body: ``, code: 400},
		{name: "whitespace only", path: batch, body: " \n\t", code: 400},
		{name: "unknown field", path: single, body: `{"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1,"foo":1}`, code: 400},
		{name: "unknown field", path: batch, body: `[{"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1,"foo":1}]`, code: 400},
		{name: "fractional id", path: single, body: `{"id":1.5,"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`, code: 400},
		{name: "fractional id", path: batch, body: `[{"id":1.5,"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 400},
		{name: "string src", path: single, body: `{"src":"1","dst":1,"start":0,"end":11,"rate":0.2,"value":1}`, code: 400},
		{name: "string src", path: batch, body: `[{"src":"1","dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 400},
		{name: "rate out of range", path: single, body: `{"src":0,"dst":1,"start":0,"end":11,"rate":1e400,"value":1}`, code: 400},
		{name: "rate out of range", path: batch, body: `[{"src":0,"dst":1,"start":0,"end":11,"rate":1e400,"value":1}]`, code: 400},
		{name: "int above int64", path: single, body: `{"src":9223372036854775808,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`, code: 400},
		{name: "int above int64", path: batch, body: `[{"src":9223372036854775808,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 400},
		{name: "object not array", path: batch, body: ok, code: 400},
		{name: "array not object", path: single, body: `[` + ok + `]`, code: 400},
		{name: "upper-case key", path: single, body: `{"SRC":2,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`, code: 202, src: 2},
		{name: "upper-case key", path: batch, body: `[{"SRC":2,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 200, statuses: []string{"queued"}, src: 2},
		{name: "lower-case key", path: batch, body: `[{"src":2,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 200, statuses: []string{"queued"}, src: 2},
		{name: "escaped key", path: single, body: `{"` + `\` + `u0073rc":2,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}`, code: 202, src: 2},
		{name: "escaped key", path: batch, body: `[{"s` + `\` + `u0072c":2,"dst":1,"start":0,"end":11,"rate":0.2,"value":1}]`, code: 200, statuses: []string{"queued"}, src: 2},
		{name: "duplicate key, last wins", path: single, body: `{"src":9,"dst":1,"start":0,"end":11,"rate":0.2,"value":1,"src":2}`, code: 202, src: 2},
		{name: "duplicate key, last wins", path: batch, body: `[{"src":9,"dst":1,"start":0,"end":11,"rate":0.2,"value":1,"src":2}]`, code: 200, statuses: []string{"queued"}, src: 2},
		{name: "null rate", path: single, body: `{"src":0,"dst":1,"start":0,"end":11,"rate":null,"value":1}`, code: 422, field: "rate"},
		{name: "null rate", path: batch, body: `[{"src":0,"dst":1,"start":0,"end":11,"rate":null,"value":1}]`, code: 200, statuses: []string{"invalid"}},
		{name: "null element", path: batch, body: `[` + ok + `,null]`, code: 200, statuses: []string{"queued", "invalid"}, src: 0},
		{name: "null body", path: batch, body: `null`, code: 200, statuses: []string{}},
		{name: "null body", path: single, body: `null`, code: 422, field: "dst"},
		{name: "empty array", path: batch, body: ` [ ] `, code: 200, statuses: []string{}},
		{name: "trailing bytes", path: batch, body: `[` + ok + `] trailing {garbage`, code: 200, statuses: []string{"queued"}, src: 0},
		{name: "trailing bytes", path: single, body: ok + `]]`, code: 202, src: 0},
		{name: "whitespace and exponents", path: single, body: "\r\n {\t\"src\" : 0 , \"dst\":1,\"start\":0,\"end\":1.1e1,\"rate\":2E-1,\"value\":-0}", code: 400},
		{name: "whitespace and exponents", path: batch, body: "\r\n [ {\t\"src\" : 0 , \"dst\":1,\"start\":-0,\"end\":11,\"rate\":2E-1,\"value\":1e2} ] ", code: 200, statuses: []string{"queued"}, src: 0},
	}
	for _, tc := range cases {
		t.Run(tc.path+"/"+tc.name, func(t *testing.T) {
			s := newTestServer(t, nil)
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
			if rr.Code != tc.code {
				t.Fatalf("status %d, want %d (body %s)", rr.Code, tc.code, rr.Body.String())
			}
			if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			body := rr.Body.Bytes()
			if !bytes.HasSuffix(body, []byte("\n")) {
				t.Fatalf("reply %q does not end in a newline", body)
			}
			switch tc.code {
			case http.StatusBadRequest:
				var m map[string]string
				if err := json.Unmarshal(body, &m); err != nil {
					t.Fatalf("400 reply %q: %v", body, err)
				}
				prefix := "decode request: "
				if tc.path == batch {
					prefix = "decode batch: "
				}
				if len(m) != 1 || !strings.HasPrefix(m["error"], prefix) || len(m["error"]) == len(prefix) {
					t.Fatalf("400 reply %q, want {\"error\":%q…}", body, prefix)
				}
			case http.StatusUnprocessableEntity:
				var m map[string]string
				if err := json.Unmarshal(body, &m); err != nil {
					t.Fatalf("422 reply %q: %v", body, err)
				}
				if len(m) != 2 || m["error"] == "" || m["field"] != tc.field {
					t.Fatalf("422 reply %q, want error and field %q", body, tc.field)
				}
			case http.StatusAccepted:
				var d Decision
				if err := json.Unmarshal(body, &d); err != nil {
					t.Fatalf("202 reply %q: %v", body, err)
				}
				if d.ID == 0 || d.Status != StatusQueued || d.Request.Src != tc.src || d.Request.ID != int(d.ID) {
					t.Fatalf("202 reply %+v, want a queued decision with src %d", d, tc.src)
				}
				if got := s.Decision(d.ID); got == nil || got.Request != d.Request {
					t.Fatalf("server holds %+v for id %d, reply echoed %+v", got, d.ID, d.Request)
				}
			case http.StatusOK:
				if len(tc.statuses) == 0 && string(body) != "[]\n" {
					t.Fatalf("empty batch reply %q, want []", body)
				}
				var out []BatchResult
				if err := json.Unmarshal(body, &out); err != nil {
					t.Fatalf("200 reply %q: %v", body, err)
				}
				if len(out) != len(tc.statuses) {
					t.Fatalf("%d results, want %d: %s", len(out), len(tc.statuses), body)
				}
				for i, r := range out {
					if r.Status != tc.statuses[i] {
						t.Fatalf("entry %d: %+v, want %s", i, r, tc.statuses[i])
					}
					if r.Status == StatusQueued {
						if r.ID == 0 || r.Error != "" {
							t.Fatalf("queued entry %d: %+v", i, r)
						}
						if d := s.Decision(r.ID); d == nil || d.Request.Src != tc.src {
							t.Fatalf("entry %d: server holds %+v, want src %d", i, d, tc.src)
						}
					} else if r.ID != 0 || r.Error == "" {
						t.Fatalf("refused entry %d: %+v, want no id and an error", i, r)
					}
				}
			}
		})
	}
}

// batchRecorder wraps a policy and records the ids of every batch a
// tick asks it to decide, in the order the tick passed them.
type batchRecorder struct {
	Policy
	mu      sync.Mutex
	batches [][]int
}

func (p *batchRecorder) Decide(ctx context.Context, led *Ledger, inst *sched.Instance, epoch, slot int) (*online.State, error) {
	ids := make([]int, inst.NumRequests())
	for i := range ids {
		ids[i] = inst.Request(i).ID
	}
	p.mu.Lock()
	p.batches = append(p.batches, ids)
	p.mu.Unlock()
	return p.Policy.Decide(ctx, led, inst, epoch, slot)
}

// claimed returns every recorded batch joined, in call order, and fails
// the test unless it is strictly ascending: the queue is in id order
// and each claim takes a prefix of it.
func (p *batchRecorder) claimed(t *testing.T) []int {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	all := slices.Concat(p.batches...)
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatalf("claimed ids out of id order at %d: %v", i, all[max(0, i-5):min(len(all), i+5)])
		}
	}
	return all
}

// TestConcurrentIntake: goroutines mixing Submit and SubmitAll race a
// ticking loop with MaxBatch set and a reader of Decision and Stats.
// Ids are unique and dense, and the ticks claim them in id order. A
// fenced tick puts its batch back in front of the rest in id order, and
// a server recovered from the log then decides every acked id exactly
// once.
func TestConcurrentIntake(t *testing.T) {
	const (
		submitters = 4
		rounds     = 60
		maxBatch   = 37
	)
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &batchRecorder{Policy: GreedyPolicy{}}
	s := walServer(t, l, func(c *Config) { c.Policy, c.MaxBatch = rec, maxBatch })
	ctx := context.Background()

	var (
		mu    sync.Mutex
		acked []int64
		wg    sync.WaitGroup
	)
	submit := func(g, rounds int) {
		var mine []int64
		for r := 0; r < rounds; r++ {
			if (g+r)%2 == 0 {
				d, err := s.Submit(goodRequest(float64(1 + r)))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mine = append(mine, d.ID)
				continue
			}
			batch := make([]demand.Request, 1+r%5)
			for i := range batch {
				batch[i] = goodRequest(float64(r + i))
			}
			for _, res := range s.SubmitAll(batch) {
				if res.Status != StatusQueued {
					t.Errorf("batch entry %+v, want queued", res)
					return
				}
				mine = append(mine, res.ID)
			}
		}
		mu.Lock()
		acked = append(acked, mine...)
		mu.Unlock()
	}
	done := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.Tick(ctx)
			}
		}
	}()
	go func() {
		defer bg.Done()
		for id := int64(0); ; id++ {
			select {
			case <-done:
				return
			default:
				s.Decision(id % 2048)
				s.Stats()
			}
		}
	}()
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			submit(g, rounds)
		}()
	}
	wg.Wait()
	close(done)
	bg.Wait()
	submit(1, 40) // a backlog past MaxBatch for the fenced tick
	if t.Failed() {
		return
	}

	slices.Sort(acked)
	for i, id := range acked {
		if id != int64(i+1) {
			t.Fatalf("acked ids are not 1..%d: position %d holds %d", len(acked), i, id)
		}
	}
	rec.claimed(t)
	var queued []int64
	for _, id := range acked {
		if s.Decision(id).Status == StatusQueued {
			queued = append(queued, id)
		}
	}
	if len(queued) <= maxBatch {
		t.Fatalf("%d queued before the fenced tick, want more than MaxBatch %d", len(queued), maxBatch)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s.Tick(ctx) // its fsync fails: fenced, batch requeued
	if s.Role() != RoleFenced {
		t.Fatalf("role %q after the failed tick, want fenced", s.Role())
	}
	if got := queuedIDs(s); !slices.Equal(got, queued) {
		t.Fatalf("queue after the fenced tick:\n%v\nwant\n%v", got, queued)
	}

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec2 := &batchRecorder{Policy: GreedyPolicy{}}
	r := walServer(t, l2, func(c *Config) { c.Policy, c.MaxBatch = rec2, maxBatch })
	if _, err := r.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if got := queuedIDs(r); !slices.Equal(got, queued) {
		t.Fatalf("recovered queue:\n%v\nwant\n%v", got, queued)
	}
	for i := 0; i < len(queued)/maxBatch+1; i++ {
		r.Tick(ctx)
	}
	rec2.claimed(t)
	for _, id := range acked {
		if d := r.Decision(id); d == nil || (d.Status != StatusAccepted && d.Status != StatusRejected) {
			t.Fatalf("acked id %d: %+v, want decided", id, d)
		}
	}
	if st := r.Stats(); st.Accepted+st.Rejected != int64(len(acked)) || st.QueueDepth != 0 {
		t.Fatalf("%d accepted + %d rejected with %d queued, want %d acked ids decided once each",
			st.Accepted, st.Rejected, st.QueueDepth, len(acked))
	}
}

// TestDecisionFloorAtPageBoundaries: with the queue limit at
// DecisionRetention the retention is raised to twice the limit, and
// after every tick Decision is nil exactly below nextID − retention.
// Ticks of 1000 ids walk the floor across the 1024-id pages of the
// decision log; each is checked at the floor and at the edges of the
// floor's page.
func TestDecisionFloorAtPageBoundaries(t *testing.T) {
	const limit = DecisionRetention
	s := newTestServer(t, func(c *Config) { c.Slots, c.QueueLimit = 64, limit })
	if got := s.cfg.retention(); got != 2*limit {
		t.Fatalf("retention %d, want %d", got, 2*limit)
	}
	s.Tick(context.Background()) // slot 1: a window ending in slot 0 has passed
	const chunk = 1000
	for n := 0; n < 2*limit+4*decisionPage; n += chunk {
		submitPassed(t, s, chunk, chunk)
		next := s.nextID.Load()
		floor := next - 2*limit
		if floor < 1 {
			continue
		}
		page := floor / decisionPage * decisionPage
		for _, id := range []int64{floor - 1, floor, page - 1, page, page + decisionPage - 1, page + decisionPage, next - 1, next} {
			if got, want := s.Decision(id) != nil, id >= floor && id < next; got != want {
				t.Fatalf("next id %d, floor %d: Decision(%d) present = %v, want %v", next, floor, id, got, want)
			}
		}
	}
	if n := len(s.dlog.pages); n > 2*limit/decisionPage+1 {
		t.Fatalf("%d decision pages held, want at most %d", n, 2*limit/decisionPage+1)
	}
}

// TestDecisionLogPutBelowFloor: an arrival replayed below the pruned
// floor lowers the floor and is retained, and the pruned records it
// uncovers stay absent.
func TestDecisionLogPutBelowFloor(t *testing.T) {
	var l decisionLog
	for id := int64(1); id <= 3*decisionPage; id++ {
		l.queue(pending{id: id})
	}
	l.prune(2*decisionPage + 2)
	if len(l.pages) != 2 || l.at(2*decisionPage+1) != nil || l.at(2*decisionPage+2) == nil {
		t.Fatalf("after the prune: %d pages from page %d", len(l.pages), l.first)
	}
	l.queue(pending{id: 100})
	for id := int64(-1); id <= 3*decisionPage+1; id++ {
		want := id == 100 || (id >= 2*decisionPage+2 && id <= 3*decisionPage)
		if got := l.at(id) != nil; got != want {
			t.Fatalf("id %d present = %v, want %v", id, got, want)
		}
	}
}

// TestRecoverOutOfOrderArrivals: a log written by a server whose queue
// was sharded may hold arrival frames out of id order. Recovery queues
// them in id order, a logged tick claims its ids wherever they sit, and
// the next live tick decides the rest in id order.
func TestRecoverOutOfOrderArrivals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	arrival := func(id int) {
		req := goodRequest(10)
		req.ID = id
		if _, err := l.Append(walRecArrival, appendArrival(nil, &req)); err != nil {
			t.Fatal(err)
		}
	}
	arrival(2)
	arrival(1)
	arrival(3)
	declined := func(id int64) walOutcome {
		return walOutcome{ID: id, Kind: walKindReject, Reason: "declined by policy"}
	}
	tr := walTick{Outcomes: []walOutcome{declined(1), declined(2)}}
	if _, err := l.Append(walRecTick, encodeTick(&tr)); err != nil {
		t.Fatal(err)
	}
	arrival(5)
	arrival(4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := &batchRecorder{Policy: GreedyPolicy{}}
	s := walServer(t, l2, func(c *Config) { c.Policy = rec })
	st, err := s.RecoverWAL()
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals != 5 || st.Ticks != 1 {
		t.Fatalf("recovered %+v, want 5 arrivals and 1 tick", st)
	}
	if got := queuedIDs(s); !slices.Equal(got, []int64{3, 4, 5}) {
		t.Fatalf("recovered queue %v, want [3 4 5]", got)
	}
	for _, id := range []int64{1, 2} {
		if d := s.Decision(id); d == nil || d.Status != StatusRejected {
			t.Fatalf("decision %d: %+v, want the logged rejection", id, d)
		}
	}
	d, err := s.Submit(goodRequest(10))
	if err != nil || d.ID != 6 {
		t.Fatalf("live submit after recovery: %+v, %v; want id 6", d, err)
	}
	s.Tick(context.Background())
	if got := rec.claimed(t); !slices.Equal(got, []int{3, 4, 5, 6}) {
		t.Fatalf("first live tick decided %v, want [3 4 5 6]", got)
	}
}

// TestSubmitAllStatuses pins the status of every batch entry that is
// not queued to its cause: a role that refuses submits names the role,
// and a WAL append that fails reads "error", like a failed fsync. The
// log is closed, as in TestTickFencesOnWALFailure: the next batch's
// fsync fails, and the failure latches, so the batch after it fails in
// the append.
func TestSubmitAllStatuses(t *testing.T) {
	bad := goodRequest(1)
	bad.Rate = -1
	for _, c := range []struct {
		name   string
		limit  int
		setup  func(*Server, *wal.Log) error
		status [3]string // two good requests, then the bad one
		errs   string    // a substring of every refusal's error
	}{
		{name: "leader", status: [3]string{"queued", "queued", "invalid"}, errs: "rate"},
		{name: "full", limit: 1, status: [3]string{"queued", "shed", "invalid"}, errs: ""},
		{name: "draining", setup: func(s *Server, _ *wal.Log) error { s.Drain(); return nil },
			status: [3]string{"draining", "draining", "draining"}, errs: ErrDraining.Error()},
		{name: "standby", setup: func(s *Server, _ *wal.Log) error { s.SetStandby(); return nil },
			status: [3]string{"standby", "standby", "standby"}, errs: ErrStandby.Error()},
		{name: "fenced", setup: func(s *Server, _ *wal.Log) error { s.Fence(); return nil },
			status: [3]string{"fenced", "fenced", "fenced"}, errs: ErrFenced.Error()},
		{name: "wal closed", setup: func(s *Server, l *wal.Log) error {
			if err := l.Close(); err != nil {
				return err
			}
			if r := s.SubmitAll([]demand.Request{goodRequest(1)})[0]; r.Status != "error" || r.ID == 0 || !strings.Contains(r.Error, "wal fsync") {
				return fmt.Errorf("batch after the close: %+v, want an fsync error", r)
			}
			return nil
		}, status: [3]string{"error", "error", "invalid"}, errs: ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			l, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := walServer(t, l, func(cfg *Config) { cfg.QueueLimit = c.limit })
			if c.setup != nil {
				if err := c.setup(s, l); err != nil {
					t.Fatal(err)
				}
			}
			got := s.SubmitAll([]demand.Request{goodRequest(1), goodRequest(2), bad})
			for i, r := range got {
				if r.Status != c.status[i] {
					t.Fatalf("entry %d: status %q (%s), want %q", i, r.Status, r.Error, c.status[i])
				}
				if (r.Status == StatusQueued) != (r.ID > 0) || (r.Status == StatusQueued) != (r.Error == "") {
					t.Fatalf("entry %d: %+v", i, r)
				}
				if r.Status != StatusQueued && !strings.Contains(r.Error, c.errs) {
					t.Fatalf("entry %d: error %q, want it to contain %q", i, r.Error, c.errs)
				}
			}
			if c.name == "wal closed" && !strings.Contains(got[0].Error, "wal append") {
				t.Fatalf("error %q, want one naming the WAL append", got[0].Error)
			}
		})
	}
}
