package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/spm"
	"metis/internal/wan"
)

// genPool builds k valid requests on net for the serve tests.
func genPool(t *testing.T, net *wan.Network, k int, seed int64) []demand.Request {
	t.Helper()
	g, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.GenerateN(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		reqs[i].ID = 0 // the server assigns ids
	}
	return reqs
}

// incrementalPolicy builds a metis-incremental policy for tests.
func incrementalPolicy(t *testing.T, replanEvery int) Policy {
	t.Helper()
	p, err := NewPolicy("metis-incremental", nil, replanEvery, core.Config{Theta: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcurrentShardedIntakeLedger hammers the sharded intake queue
// and the ledger from all sides at once — parallel submitters, epoch
// ticks, ledger and counter reads and decision lookups — then drains
// and checks global accounting plus the spm ledger invariants. Run
// under -race this is the data-race certificate for the sharded hot
// path.
func TestConcurrentShardedIntakeLedger(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.QueueLimit = 1 << 16
		c.Epoch = time.Minute // budget never expires mid-test
	})
	pool := genPool(t, wan.SubB4(), 400, 4242)

	const submitters = 8
	var subWG, bgWG sync.WaitGroup
	stop := make(chan struct{})
	subWG.Add(submitters)
	for w := 0; w < submitters; w++ {
		go func(w int) {
			defer subWG.Done()
			for i := w; i < len(pool); i += submitters {
				if _, err := s.Submit(pool[i]); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%16 == w%16 {
					s.Decision(int64(i + 1)) // lookup races against commits
				}
			}
		}(w)
	}
	bgWG.Add(2)
	go func() { // epoch ticks racing the submitters
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Tick(context.Background())
			}
		}
	}()
	go func() { // readers racing both
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.LedgerCopy()
				s.Stats()
				s.Health()
			}
		}
	}()
	subWG.Wait()
	close(stop)
	bgWG.Wait()
	s.Drain()

	st := s.Stats()
	if st.Submitted != int64(len(pool)) {
		t.Fatalf("submitted = %d, want %d", st.Submitted, len(pool))
	}
	if st.Accepted+st.Rejected != st.Submitted {
		t.Fatalf("accepted %d + rejected %d != submitted %d (queueDepth %d)",
			st.Accepted, st.Rejected, st.Submitted, st.QueueDepth)
	}
	// The committed state must satisfy the spm ledger invariants.
	led := s.LedgerCopy()
	if err := spm.CheckLedger(led.Loads(), led.Purchased()); err != nil {
		t.Fatalf("ledger invariants after concurrent run: %v", err)
	}
}

// TestSubmitBatchEndpoint: one JSON array in, per-request results out,
// ids in submission order, invalid entries reported inline.
func TestSubmitBatchEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	bad := goodRequest(5)
	bad.End = 99
	body, err := json.Marshal([]demand.Request{goodRequest(1), bad, goodRequest(2)})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/requests/batch", bytes.NewReader(body))
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rr.Code, rr.Body.String())
	}
	var out []BatchResult
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3", len(out))
	}
	if out[0].Status != StatusQueued || out[2].Status != StatusQueued {
		t.Fatalf("valid entries not queued: %+v", out)
	}
	if out[1].Status != "invalid" || out[1].Error == "" {
		t.Fatalf("invalid entry: %+v", out[1])
	}
	if out[0].ID >= out[2].ID {
		t.Fatalf("ids out of order: %d then %d", out[0].ID, out[2].ID)
	}
	if st := s.Stats(); st.Submitted != 2 || st.QueueDepth != 2 {
		t.Fatalf("stats after batch: %+v", st)
	}
}
