package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/online"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/wan"
)

func newTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{Net: wan.SubB4(), Epoch: 50 * time.Millisecond}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func goodRequest(value float64) demand.Request {
	return demand.Request{Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.2, Value: value}
}

func TestSubmitTickAcceptReject(t *testing.T) {
	s := newTestServer(t, nil)
	rich, err := s.Submit(goodRequest(1e6))
	if err != nil {
		t.Fatal(err)
	}
	// The poor request's rate forces a fresh bandwidth purchase (it cannot
	// ride in the rich request's residual), so its tiny value loses money.
	poorReq := goodRequest(1e-6)
	poorReq.Rate = 0.9
	poor, err := s.Submit(poorReq)
	if err != nil {
		t.Fatal(err)
	}
	if rich.Status != StatusQueued || poor.Status != StatusQueued {
		t.Fatalf("want queued, got %q / %q", rich.Status, poor.Status)
	}

	s.Tick(context.Background())

	d := s.Decision(rich.ID)
	if d == nil || d.Status != StatusAccepted {
		t.Fatalf("high-value request: %+v, want accepted", d)
	}
	if len(d.Links) == 0 {
		t.Fatal("accepted decision has no path")
	}
	d = s.Decision(poor.ID)
	if d == nil || d.Status != StatusRejected {
		t.Fatalf("worthless request: %+v, want rejected", d)
	}

	st := s.Stats()
	if st.Accepted != 1 || st.Rejected != 1 || st.Submitted != 2 {
		t.Fatalf("stats = %+v, want 1 accepted / 1 rejected / 2 submitted", st)
	}
	if st.Committed != 1 || st.PurchasedUnits == 0 {
		t.Fatalf("ledger: committed=%d purchased=%d, want 1 and >0", st.Committed, st.PurchasedUnits)
	}
	if st.Revenue != 1e6 {
		t.Fatalf("revenue = %v, want 1e6", st.Revenue)
	}
}

func TestSubmitValidationTyped(t *testing.T) {
	s := newTestServer(t, nil)
	bad := goodRequest(1)
	bad.End = 99
	_, err := s.Submit(bad)
	var verr *demand.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	if verr.Field != demand.FieldWindow {
		t.Fatalf("field = %q, want %q", verr.Field, demand.FieldWindow)
	}
}

func TestQueueLimitSheds(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.QueueLimit = 3 })
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(goodRequest(10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(goodRequest(10)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
}

func TestExpiredWindowRejected(t *testing.T) {
	s := newTestServer(t, nil)
	// Advance the daemon two slots with empty ticks.
	s.Tick(context.Background())
	s.Tick(context.Background())
	r := goodRequest(100)
	r.Start, r.End = 0, 1 // fully in the past at slot 2
	d, err := s.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())
	got := s.Decision(d.ID)
	if got.Status != StatusRejected || got.Reason == "" {
		t.Fatalf("want rejected with reason, got %+v", got)
	}
}

func TestLateWindowClampedNotRejected(t *testing.T) {
	s := newTestServer(t, nil)
	s.Tick(context.Background()) // now at slot 1
	r := goodRequest(1e6)
	r.Start, r.End = 0, 11 // started in the past, still live
	d, err := s.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())
	got := s.Decision(d.ID)
	if got.Status != StatusAccepted {
		t.Fatalf("want accepted (clamped window), got %+v", got)
	}
	// The committed load must not touch the already-passed slot 0.
	led := s.LedgerCopy()
	for e, ts := range led.Loads() {
		if ts[0] != 0 {
			t.Fatalf("link %d slot 0 has load %v, want 0 (window clamp)", e, ts[0])
		}
	}
}

func TestCycleWrapResetsLedger(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Slots = 2 })
	r := goodRequest(1e6)
	r.Start, r.End = 0, 1
	if _, err := s.Submit(r); err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background()) // slot 0: accept, buy
	if s.Stats().PurchasedUnits == 0 {
		t.Fatal("no purchase after accept")
	}
	s.Tick(context.Background()) // slot 1
	s.Tick(context.Background()) // wrap → slot 0 of cycle 1: ledger reset
	st := s.Stats()
	if st.PurchasedUnits != 0 || st.Committed != 0 {
		t.Fatalf("after wrap: purchased=%d committed=%d, want 0/0", st.PurchasedUnits, st.Committed)
	}
	if st.Cycle != 1 {
		t.Fatalf("cycle = %d, want 1", st.Cycle)
	}
}

// stallPolicy blocks until the tick context expires, then reports the
// typed sentinel — modeling a policy solve that overruns its budget.
type stallPolicy struct{}

func (stallPolicy) Name() string { return "stall" }
func (stallPolicy) Reset()       {}
func (stallPolicy) Decide(ctx context.Context, led *Ledger, inst *sched.Instance, _, _ int) (*online.State, error) {
	<-ctx.Done()
	return nil, solvectx.Err(ctx)
}

func TestTickBudgetDegradesToGreedy(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Epoch = 20 * time.Millisecond
		c.TickBudget = 0.5
		c.Policy = stallPolicy{}
	})
	d, err := s.Submit(goodRequest(1e6))
	if err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())
	got := s.Decision(d.ID)
	if got.Status != StatusAccepted {
		t.Fatalf("want accepted by greedy fallback, got %+v", got)
	}
	if !got.Degraded {
		t.Fatal("decision not marked degraded")
	}
	if st := s.Stats(); st.DegradedEpochs != 1 {
		t.Fatalf("degraded epochs = %d, want 1", st.DegradedEpochs)
	}
}

// TestNewPolicyNames pins the policy names NewPolicy accepts. Retired
// names are refused, never mapped onto another policy.
func TestNewPolicyNames(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"greedy", "greedy"},
		{"", "greedy"},
		{"taa", "taa"},
		{"metis-incremental", "metis-incremental"},
		{"metis", ""},
		{"metis-inc", ""},
		{"provisioned-taa", ""},
		{"no-such-policy", ""},
	} {
		p, err := NewPolicy(tc.name, nil, 2, core.Config{})
		if tc.want == "" {
			if err == nil {
				t.Errorf("NewPolicy(%q) = %s, want an error", tc.name, p.Name())
			} else if !strings.Contains(err.Error(), "(have: greedy, taa, metis-incremental)") {
				t.Errorf("NewPolicy(%q) error %q does not list the three names", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", tc.name, err)
		} else if got := p.Name(); got != tc.want {
			t.Errorf("NewPolicy(%q).Name() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestPolicies(t *testing.T) {
	net := wan.SubB4()
	uniform := make([]int, net.NumLinks())
	for e := range uniform {
		uniform[e] = 10
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{name: "greedy", mut: nil},
		{name: "taa", mut: func(c *Config) { c.Policy = &TAAPolicy{Plan: uniform} }},
		{name: "metis-incremental", mut: func(c *Config) { c.Policy = &MetisPolicy{ReplanEvery: 2} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.mut)
			var ids []int64
			for i := 0; i < 8; i++ {
				r := goodRequest(1e5)
				r.Src, r.Dst = i%3, 3+i%3
				d, err := s.Submit(r)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, d.ID)
			}
			s.Tick(context.Background())
			accepted := 0
			for _, id := range ids {
				d := s.Decision(id)
				if d.Status == StatusQueued {
					t.Fatalf("request %d still queued after tick", id)
				}
				if d.Status == StatusAccepted {
					accepted++
				}
			}
			if accepted == 0 {
				t.Fatalf("%s accepted nothing from a high-value batch", tc.name)
			}
			// Committed load must fit the purchase on every (link, slot).
			led := s.LedgerCopy()
			purchased := led.Purchased()
			for e, ts := range led.Loads() {
				for slot, v := range ts {
					if v > float64(purchased[e])+1e-9 {
						t.Fatalf("link %d slot %d: load %v exceeds purchased %d", e, slot, v, purchased[e])
					}
				}
			}
		})
	}
}

func TestDrainDecidesQueueAndStopsIntake(t *testing.T) {
	s := newTestServer(t, nil)
	d, err := s.Submit(goodRequest(1e6))
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if got := s.Decision(d.ID); got.Status != StatusAccepted {
		t.Fatalf("drain left request undecided: %+v", got)
	}
	if _, err := s.Submit(goodRequest(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining after drain, got %v", err)
	}
	// Drain is idempotent.
	s.Drain()
	if st := s.Stats(); st.Epoch != 1 || st.Accepted != 1 {
		t.Fatalf("a second drain moved state: %+v", st)
	}
}

func TestRunLoopTicksAndDrains(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Epoch = 10 * time.Millisecond })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	if _, err := s.Submit(goodRequest(1e6)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for s.Stats().Accepted == 0 {
		select {
		case <-deadline:
			t.Fatal("run loop never decided the request")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("run did not drain after cancel")
	}
	if !s.Stats().Draining {
		t.Fatal("server not marked draining after run exit")
	}
}

// TestHugeRateRefused: a rate above demand.MaxRequestRate answers 422 on
// the rate field. Admitted, a rate of 1e300 rounded up to a purchase
// outside int's range, was charged zero units, and left the pair's
// links open to every later request for free.
func TestHugeRateRefused(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Check = true })
	rr := httptest.NewRecorder()
	body := `{"src":0,"dst":1,"start":0,"end":11,"rate":1e300,"value":1}`
	s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/requests", strings.NewReader(body)))
	if rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("rate 1e300: status %d, want 422 (body %s)", rr.Code, rr.Body.String())
	}
	var m map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil || m["field"] != demand.FieldRate {
		t.Fatalf("rate 1e300: reply %s, want field %q", rr.Body.String(), demand.FieldRate)
	}

	d, err := s.Submit(goodRequest(1e6))
	if err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())
	if got := s.Decision(d.ID); got == nil || got.Status != StatusAccepted {
		t.Fatalf("later request: decision %+v, want accepted", got)
	}
	if st := s.Stats(); st.PurchasedUnits == 0 || st.CheckFailures != 0 {
		t.Fatalf("later request: %d units purchased, %d check failures; want a purchase and none", st.PurchasedUnits, st.CheckFailures)
	}
}

func TestHTTPAPI(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(t *testing.T, body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/requests", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp, m
	}

	resp, m := post(t, `{"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":100000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	id := int64(m["id"].(float64))

	resp, m = post(t, `{"src":0,"dst":0,"start":0,"end":11,"rate":0.2,"value":1}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid submit status = %d, want 422", resp.StatusCode)
	}
	if m["field"] != demand.FieldDst {
		t.Fatalf("error field = %v, want %q", m["field"], demand.FieldDst)
	}

	s.Tick(context.Background())

	resp, err := http.Get(fmt.Sprintf("%s/v1/decisions/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	var d Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d.Status != StatusAccepted {
		t.Fatalf("decision = %+v, want accepted", d)
	}

	resp, err = http.Get(ts.URL + "/v1/decisions/99999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown decision status = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Accepted != 1 {
		t.Fatalf("stats accepted = %d, want 1", st.Accepted)
	}

	resp, err = http.Get(ts.URL + "/v1/links")
	if err != nil {
		t.Fatal(err)
	}
	var links []LinkState
	if err := json.NewDecoder(resp.Body).Decode(&links); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(links) != wan.SubB4().NumLinks() {
		t.Fatalf("links = %d, want %d", len(links), wan.SubB4().NumLinks())
	}
}

// TestConcurrentSubmitTickSnapshot is the race-detector workout:
// parallel submitters, an epoch ticker, the state dump and the read
// endpoints all hammering one server.
func TestConcurrentSubmitTickSnapshot(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.QueueLimit = 64
		c.Epoch = 5 * time.Millisecond
	})
	stop := make(chan struct{})
	tickerDone := make(chan struct{})
	var wg sync.WaitGroup

	// Ticker goroutine (the Run loop's role). Deliberately outside wg:
	// it runs until the workers finish, then stop is closed.
	go func() {
		defer close(tickerDone)
		for {
			select {
			case <-stop:
				return
			default:
				s.Tick(context.Background())
			}
		}
	}()

	// Submitters.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := goodRequest(float64(1 + i))
				r.Src, r.Dst = g%3, 3+i%3
				_, err := s.Submit(r)
				if err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}

	// Readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := s.Snapshot(io.Discard); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			_ = s.LedgerCopy()
			_ = s.Stats()
			_ = s.Links()
		}
	}()

	// Let the submitters finish, then stop the ticker.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: workers did not finish")
	}
	close(stop)
	<-tickerDone

	// Decide any stragglers, then check global accounting.
	s.Tick(context.Background())
	st := s.Stats()
	if st.Accepted+st.Rejected != st.Submitted {
		t.Fatalf("decided %d of %d submitted", st.Accepted+st.Rejected, st.Submitted)
	}
}

// TestDecisionIDBounds: GET /v1/decisions/{id} answers 404 for any id
// the server never assigned, negative ones included, and 400 for one
// that is not a number.
func TestDecisionIDBounds(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		id   string
		want int
	}{
		{"-5", http.StatusNotFound},
		{"-1", http.StatusNotFound},
		{"0", http.StatusNotFound},
		{"1", http.StatusNotFound},
		{"x", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + "/v1/decisions/" + tc.id)
		if err != nil {
			t.Fatalf("GET /v1/decisions/%s: %v", tc.id, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET /v1/decisions/%s = %d, want %d", tc.id, resp.StatusCode, tc.want)
		}
	}
}

// submitPassed submits n requests whose window has already passed,
// ticking after every chunk of at most chunk requests, and fails on any
// that is not queued. The tick rejects a passed window without calling the
// policy, so ids advance at intake speed.
func submitPassed(t *testing.T, s *Server, n, chunk int) {
	t.Helper()
	past := goodRequest(1)
	past.Start, past.End = 0, 0
	batch := make([]demand.Request, chunk)
	for i := range batch {
		batch[i] = past
	}
	for n > 0 {
		k := min(n, chunk)
		for _, r := range s.SubmitAll(batch[:k]) {
			if r.Status != StatusQueued {
				t.Fatalf("submit: %+v, want queued", r)
			}
		}
		s.Tick(context.Background())
		n -= k
	}
}

// TestDecisionRetentionDropsOldest: past DecisionRetention ids the
// oldest decision records go, and exactly the newest DecisionRetention
// stay.
func TestDecisionRetentionDropsOldest(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Slots, c.QueueLimit = 64, 1<<15 })
	s.Tick(context.Background()) // slot 1: a window ending in slot 0 has passed
	const n = DecisionRetention + 10
	submitPassed(t, s, n, 1<<15)
	newest := int64(n) // ids run 1..n
	oldest := newest - DecisionRetention + 1
	for _, id := range []int64{oldest, newest} {
		if d := s.Decision(id); d == nil || d.Status != StatusRejected {
			t.Fatalf("decision %d: %+v, want a retained rejection", id, d)
		}
	}
	for _, id := range []int64{1, oldest - 1} {
		if d := s.Decision(id); d != nil {
			t.Fatalf("decision %d: %+v, want pruned", id, d)
		}
	}
}

// TestQueuedRequestNeverPruned: with a queue limit past
// DecisionRetention, a tick that decides one request leaves every
// queued request's record in place, however many ids are newer.
func TestQueuedRequestNeverPruned(t *testing.T) {
	const limit = DecisionRetention + 8
	s := newTestServer(t, func(c *Config) { c.Slots, c.QueueLimit, c.MaxBatch = 64, limit, 1 })
	s.Tick(context.Background())
	submitPassed(t, s, limit, limit) // its one tick decides id 1 only
	for id := int64(2); id <= limit; id++ {
		if d := s.Decision(id); d == nil || d.Status != StatusQueued {
			t.Fatalf("queued decision %d: %+v, want still queued", id, d)
		}
	}
	if d := s.Decision(1); d == nil || d.Status != StatusRejected {
		t.Fatalf("decision 1: %+v, want rejected", d)
	}
}

// TestGreedyExpiredBudgetNotDegraded: greedy never solves an LP, so a
// tick whose budget has already expired still decides with it and
// records no degraded epoch.
func TestGreedyExpiredBudgetNotDegraded(t *testing.T) {
	s := newTestServer(t, nil)
	d, err := s.Submit(goodRequest(1e6))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s.Tick(ctx)
	if got := s.Decision(d.ID); got.Status != StatusAccepted || got.Degraded {
		t.Fatalf("decision %+v, want accepted, not degraded", got)
	}
	if st := s.Stats(); st.DegradedEpochs != 0 {
		t.Fatalf("degraded epochs = %d, want 0", st.DegradedEpochs)
	}
	if r := s.EpochRecords()[0]; r.Degraded || r.SolveStatus != SolveOK {
		t.Fatalf("epoch record: degraded %v status %q, want false, %q", r.Degraded, r.SolveStatus, SolveOK)
	}
}
