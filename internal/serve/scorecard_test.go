package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"metis/internal/demand"
	"metis/internal/fault"
	"metis/internal/obs"
	"metis/internal/online"
	"metis/internal/sched"
	"metis/internal/wan"
)

func TestScorecardNormalEpoch(t *testing.T) {
	s := newTestServer(t, nil)
	if _, err := s.Submit(goodRequest(1e6)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(goodRequest(2e6)); err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())
	s.Tick(context.Background()) // empty epoch

	recs := s.EpochRecords()
	if len(recs) != 2 {
		t.Fatalf("got %d epoch records, want 2", len(recs))
	}
	r := recs[0]
	if r.Epoch != 0 || r.Batch != 2 || r.Accepted+r.Rejected != 2 {
		t.Fatalf("record 0 = %+v, want batch 2 fully decided", r)
	}
	if r.SolveStatus != SolveOK {
		t.Fatalf("solve status = %q, want %q", r.SolveStatus, SolveOK)
	}
	if r.Policy != s.cfg.Policy.Name() {
		t.Fatalf("policy = %q, want %q", r.Policy, s.cfg.Policy.Name())
	}
	if r.Degraded || r.SolveStatus == SolveError {
		t.Fatalf("healthy epoch recorded as unhealthy: %+v", r)
	}
	if r.QueueWaitMaxMillis < r.QueueWaitMeanMillis {
		t.Fatalf("queue wait max %v < mean %v", r.QueueWaitMaxMillis, r.QueueWaitMeanMillis)
	}
	if got := r.RevenueDelta - r.CostDelta; r.ProfitDelta != got {
		t.Fatalf("profit delta %v, want revenue-cost %v", r.ProfitDelta, got)
	}
	if r.RevenueDelta <= 0 {
		t.Fatalf("revenue delta = %v, want >0 (accepted a paying request)", r.RevenueDelta)
	}
	if recs[1].SolveStatus != SolveIdle || recs[1].Batch != 0 {
		t.Fatalf("empty epoch = %+v, want idle", recs[1])
	}
}

func TestScorecardDegradedEpoch(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Epoch = 20 * time.Millisecond
		c.Policy = stallPolicy{}
	})
	if _, err := s.Submit(goodRequest(100)); err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())

	recs := s.EpochRecords()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if !r.Degraded || r.SolveStatus != SolveDegradedFallback {
		t.Fatalf("degraded epoch = %+v, want degraded-fallback", r)
	}
	if r.Accepted+r.Rejected != 1 {
		t.Fatalf("degraded epoch still must decide the batch: %+v", r)
	}
	st := s.Stats()
	if st.DegradedDecisions != 1 {
		t.Fatalf("degraded decisions = %d, want 1", st.DegradedDecisions)
	}
}

func TestScorecardRingWraps(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.ScorecardSize = 4 })
	for i := 0; i < 6; i++ {
		s.Tick(context.Background())
	}
	recs := s.EpochRecords()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want ring size 4", len(recs))
	}
	if recs[0].Epoch != 2 || recs[3].Epoch != 5 {
		t.Fatalf("ring order wrong: first epoch %d, last %d", recs[0].Epoch, recs[3].Epoch)
	}
}

// TestScorecardReplanColumns pins the replan columns bench reads: a
// metis-incremental tick with arrivals replans once (replan-every 1),
// and a replan the tick budget cuts short is counted as degraded and
// sets the row's solve status.
func TestScorecardReplanColumns(t *testing.T) {
	// run ticks one epoch per batch, then one empty epoch, on a fresh
	// metis-incremental server.
	run := func(t *testing.T, epoch time.Duration, batches int) []EpochRecord {
		t.Helper()
		s := newTestServer(t, func(c *Config) {
			c.Epoch = epoch
			c.Policy = incrementalPolicy(t, 1)
		})
		pool := genPool(t, wan.SubB4(), 3*batches, 31)
		for k := 0; k < batches; k++ {
			for _, r := range pool[3*k : 3*k+3] {
				r.Start, r.End = k, s.cfg.Slots-1 // live at this tick's slot
				if _, err := s.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			s.Tick(context.Background())
		}
		s.Tick(context.Background())
		return s.EpochRecords()
	}

	t.Run("every tick replans", func(t *testing.T) {
		recs := run(t, time.Hour, 4)
		for _, r := range recs[:4] {
			if r.Batch != 3 || r.Replans != 1 || r.ReplansDegraded != 0 || r.SolveStatus != SolveOK {
				t.Fatalf("epoch %d: batch %d replans %d degraded %d status %q, want 3, 1, 0, %q",
					r.Epoch, r.Batch, r.Replans, r.ReplansDegraded, r.SolveStatus, SolveOK)
			}
		}
		if r := recs[4]; r.Replans != 0 || r.SolveStatus != SolveIdle {
			t.Fatalf("empty epoch: replans %d status %q, want 0, %q", r.Replans, r.SolveStatus, SolveIdle)
		}
	})

	t.Run("stalled replan degrades", func(t *testing.T) {
		// The first LP solve stalls past the replan's share of the
		// 320 ms tick budget; admission still decides in what is left.
		fault.Enable("lp.solve", fault.Spec{Kind: fault.KindSleep, Sleep: 200 * time.Millisecond})
		t.Cleanup(fault.Reset)
		r := run(t, 400*time.Millisecond, 1)[0]
		if r.Replans != 1 || r.ReplansDegraded != 1 || r.Degraded || r.SolveStatus != SolveReplanDegraded {
			t.Fatalf("stalled epoch: replans %d degraded replans %d degraded %v status %q, want 1, 1, false, %q",
				r.Replans, r.ReplansDegraded, r.Degraded, r.SolveStatus, SolveReplanDegraded)
		}
	})
}

// tickingPolicy ticks another server before it decides its own batch
// greedily: the other server's replans run inside this server's tick,
// as they do when two servers share a process.
type tickingPolicy struct{ other *Server }

func (tickingPolicy) Name() string { return "ticking" }
func (tickingPolicy) Reset()       {}
func (p tickingPolicy) Decide(ctx context.Context, led *Ledger, inst *sched.Instance, epoch, slot int) (*online.State, error) {
	p.other.Tick(context.Background())
	return GreedyPolicy{}.Decide(ctx, led, inst, epoch, slot)
}

// TestEpochRecordCountsOwnReplans: a scorecard row bills only its own
// server's replans, not another server's that ran during the tick.
func TestEpochRecordCountsOwnReplans(t *testing.T) {
	metis := newTestServer(t, func(c *Config) {
		c.Epoch = time.Hour
		c.Policy = incrementalPolicy(t, 1)
	})
	for _, r := range genPool(t, wan.SubB4(), 3, 31) {
		if _, err := metis.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, func(c *Config) {
		c.Epoch = time.Hour
		c.Policy = tickingPolicy{other: metis}
	})
	if _, err := s.Submit(goodRequest(1e6)); err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())
	if r := metis.EpochRecords()[0]; r.Replans != 1 {
		t.Fatalf("metis-incremental row: replans %d, want 1", r.Replans)
	}
	if r := s.EpochRecords()[0]; r.Replans != 0 || r.ReplansDegraded != 0 || r.SolveStatus != SolveOK {
		t.Fatalf("outer row: replans %d degraded %d status %q, want 0, 0, %q",
			r.Replans, r.ReplansDegraded, r.SolveStatus, SolveOK)
	}
}

func TestHealthTransitions(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.QueueLimit = 1 })
	if h := s.Health(); h.Status != HealthStarting || !h.Healthy() {
		t.Fatalf("pre-tick health = %+v, want healthy starting", h)
	}
	s.Tick(context.Background())
	if h := s.Health(); h.Status != HealthOK || !h.Healthy() {
		t.Fatalf("post-tick health = %+v, want ok", h)
	}

	// Overflow the one-slot queue: the second submit is shed.
	if _, err := s.Submit(goodRequest(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(goodRequest(1)); err != ErrQueueFull {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if h := s.Health(); h.Status != HealthShedding || h.Healthy() {
		t.Fatalf("health after shed = %+v, want unhealthy shedding", h)
	}
	s.Tick(context.Background())
	if h := s.Health(); h.Status != HealthShedding {
		t.Fatalf("health right after shed epoch = %+v, want shedding", h)
	}
	s.Tick(context.Background()) // clean epoch clears the shed signal
	if h := s.Health(); h.Status != HealthOK {
		t.Fatalf("health after clean epoch = %+v, want ok", h)
	}
}

func TestHealthBehindAndDraining(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Epoch = 10 * time.Millisecond })
	s.Tick(context.Background())
	time.Sleep(50 * time.Millisecond) // > 2 epochs without a tick
	if h := s.Health(); h.Status != HealthBehind || h.Healthy() {
		t.Fatalf("stalled-loop health = %+v, want behind", h)
	}
	if lag := s.Health().EpochLagMillis; lag <= 0 {
		t.Fatalf("epoch lag = %d, want >0", lag)
	}
	s.Drain()
	if h := s.Health(); h.Status != HealthDraining || h.Healthy() {
		t.Fatalf("draining health = %+v, want draining", h)
	}
}

func TestStatsLatencySummaries(t *testing.T) {
	s := newTestServer(t, nil)
	if _, err := s.Submit(goodRequest(1e6)); err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())
	st := s.Stats()
	qw, ok := st.Latency["queueWait"]
	if !ok || qw.Count == 0 {
		t.Fatalf("stats latency missing queueWait: %+v", st.Latency)
	}
	if qw.MaxMillis < 0 || qw.P99Millis < qw.P50Millis {
		t.Fatalf("queueWait summary inconsistent: %+v", qw)
	}
	if _, ok := st.Latency[OutcomeAccepted]; !ok {
		t.Fatalf("stats latency missing accepted outcome: %+v", st.Latency)
	}
}

// Two servers running the same policy in one process each digest only
// their own arrivals.
func TestStatsLatencyPerServer(t *testing.T) {
	a, b := newTestServer(t, nil), newTestServer(t, nil)
	arrivals := map[*Server]int{a: 3, b: 5}
	for s, n := range arrivals {
		for i := 0; i < n; i++ {
			req := goodRequest(1e6)
			if i%2 == 1 {
				req = goodRequest(1e-6) // worthless: rejected
				req.Rate = 0.9
			}
			if _, err := s.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.Tick(context.Background())
	b.Tick(context.Background())
	for s, n := range arrivals {
		st := s.Stats()
		if st.Accepted == 0 || st.Rejected == 0 || st.Accepted+st.Rejected != int64(n) {
			t.Fatalf("server with %d arrivals: %d accepted, %d rejected", n, st.Accepted, st.Rejected)
		}
		lat := st.Latency
		if got := lat["queueWait"].Count; got != uint64(n) {
			t.Errorf("server with %d arrivals: queueWait count %d", n, got)
		}
		if got := lat[OutcomeAccepted].Count; got != uint64(st.Accepted) {
			t.Errorf("server with %d arrivals: accepted latency count %d, want %d", n, got, st.Accepted)
		}
		if got := lat[OutcomeRejected].Count; got != uint64(st.Rejected) {
			t.Errorf("server with %d arrivals: rejected latency count %d, want %d", n, got, st.Rejected)
		}
	}
}

func TestDebugEpochsEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	s.Tick(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/epochs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/epochs status %d", resp.StatusCode)
	}
	var recs []EpochRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].SolveStatus == "" {
		t.Fatalf("/debug/epochs = %+v, want one populated record", recs)
	}

	hr, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("/healthz status %d, want 200", hr.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != HealthOK {
		t.Fatalf("/healthz = %+v, want ok", h)
	}
}

func TestLifecycleTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	s := newTestServer(t, func(c *Config) { c.Tracer = tr })
	if _, err := s.Submit(goodRequest(1e6)); err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sawArrival, sawSolve, sawEpoch bool
	for _, r := range recs {
		switch r.Name {
		case "serve.arrival":
			sawArrival = true
			if r.FieldString("outcome") != "queued" {
				t.Fatalf("arrival outcome = %q", r.FieldString("outcome"))
			}
		case "serve.solve":
			sawSolve = true
		case "serve.epoch":
			sawEpoch = true
			if r.FieldString("status") != SolveOK {
				t.Fatalf("epoch span status = %q, want ok", r.FieldString("status"))
			}
			if r.FieldFloat("batch") != 1 {
				t.Fatalf("epoch span batch = %v, want 1", r.Field("batch"))
			}
		}
	}
	if !sawArrival || !sawSolve || !sawEpoch {
		t.Fatalf("lifecycle trace incomplete: arrival=%v solve=%v epoch=%v", sawArrival, sawSolve, sawEpoch)
	}
}

// TestEpochSpanMatchesRecord: the serve.epoch span's counts are the
// scorecard record's, so an expired request is counted as expired and
// not also as rejected.
func TestEpochSpanMatchesRecord(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	s := newTestServer(t, func(c *Config) { c.Tracer = tr })
	s.Tick(context.Background())
	s.Tick(context.Background()) // the next tick decides slot 2
	expired := goodRequest(1e6)
	expired.End = 1
	poor := goodRequest(1e-6)
	poor.Rate = 0.9
	for _, r := range []demand.Request{goodRequest(1e6), poor, expired} {
		if _, err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Tick(context.Background())
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var span *obs.WireRecord
	for i := range recs {
		if recs[i].Name == "serve.epoch" {
			span = &recs[i]
		}
	}
	rows := s.EpochRecords()
	if span == nil || len(rows) != 3 {
		t.Fatalf("got %d epoch records and span %v, want 3 and the last tick's span", len(rows), span)
	}
	rec := rows[2]
	if rec.Batch != 3 || rec.Accepted != 1 || rec.Rejected != 1 || rec.Expired != 1 {
		t.Fatalf("record %+v, want batch 3 with 1 accepted, 1 rejected, 1 expired", rec)
	}
	for field, want := range map[string]int{
		"batch": rec.Batch, "accepted": rec.Accepted, "rejected": rec.Rejected, "expired": rec.Expired,
	} {
		if got := span.FieldFloat(field); got != float64(want) {
			t.Errorf("span %s = %v, record says %d", field, got, want)
		}
	}
}

// TestTracingConcurrent exercises the full observability path — tracer,
// latency histograms and scorecard — under concurrent submits and
// ticks. Its value is under -race (CI runs it there).
func TestTracingConcurrent(t *testing.T) {
	tr := obs.NewJSONLTracer(discard{})
	s := newTestServer(t, func(c *Config) {
		c.Tracer = tr
		c.QueueLimit = 64
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = s.Submit(goodRequest(100))
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		s.Tick(context.Background())
		_ = s.Stats()
		_ = s.Health()
		_ = s.EpochRecords()
	}
	close(stop)
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(s.EpochRecords()) != 20 {
		t.Fatalf("got %d epoch records, want 20", len(s.EpochRecords()))
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
