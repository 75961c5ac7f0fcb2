package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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
// and striped ledger from all sides at once — parallel submitters,
// epoch ticks, snapshots and decision lookups — then drains and checks
// global accounting plus the spm ledger invariants. Run under -race
// this is the data-race certificate for the sharded hot path.
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
	go func() { // snapshots racing both
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := s.Snapshot(&buf); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				s.Stats()
				s.Health()
			}
		}
	}()
	subWG.Wait()
	close(stop)
	bgWG.Wait()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

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

// TestSnapshotRestoreMidCycleIncremental proves the tentpole's
// snapshot contract: a server running the metis-incremental policy,
// snapshotted mid-cycle (committed epochs + queued arrivals + policy
// state), restores into a fresh process that makes byte-identical
// subsequent decisions and ledger state.
func TestSnapshotRestoreMidCycleIncremental(t *testing.T) {
	net := wan.SubB4()
	pool := genPool(t, net, 60, 515)
	mkServer := func() *Server {
		s, err := New(Config{
			Net:    net,
			Epoch:  time.Minute,
			Policy: incrementalPolicy(t, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	orig := mkServer()
	submit := func(s *Server, reqs []demand.Request) {
		t.Helper()
		for _, r := range reqs {
			if _, err := s.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(orig, pool[:20])
	orig.Tick(context.Background())
	submit(orig, pool[20:30])
	orig.Tick(context.Background())
	submit(orig, pool[30:40]) // queued, undecided at snapshot time

	var img bytes.Buffer
	if err := orig.Snapshot(&img); err != nil {
		t.Fatal(err)
	}

	restored := mkServer()
	if err := restored.Restore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != orig.Epoch() {
		t.Fatalf("restored epoch %d, original %d", restored.Epoch(), orig.Epoch())
	}
	if !restored.LedgerCopy().Equal(orig.LedgerCopy()) {
		t.Fatal("restored ledger differs from original")
	}

	// Both servers receive the same tail of arrivals and tick on. The
	// restored one must decide every request — the re-queued batch and
	// the new tail — exactly as the uninterrupted one does.
	submit(orig, pool[40:])
	submit(restored, pool[40:])
	orig.Tick(context.Background())
	restored.Tick(context.Background())

	for id := int64(31); id <= 60; id++ {
		do, dr := orig.Decision(id), restored.Decision(id)
		if do == nil || dr == nil {
			t.Fatalf("decision %d missing (orig %v, restored %v)", id, do != nil, dr != nil)
		}
		if do.Status != dr.Status {
			t.Fatalf("request %d: original %s, restored %s", id, do.Status, dr.Status)
		}
		if len(do.Links) != len(dr.Links) {
			t.Fatalf("request %d: paths differ (%v vs %v)", id, do.Links, dr.Links)
		}
		for i := range do.Links {
			if do.Links[i] != dr.Links[i] {
				t.Fatalf("request %d: paths differ (%v vs %v)", id, do.Links, dr.Links)
			}
		}
	}
	if !restored.LedgerCopy().Equal(orig.LedgerCopy()) {
		t.Fatal("ledgers diverged after post-restore ticks")
	}
	so, sr := orig.Stats(), restored.Stats()
	if so.Committed != sr.Committed || so.PurchasedUnits != sr.PurchasedUnits {
		t.Fatalf("ledger stats diverged: orig committed=%d units=%d, restored committed=%d units=%d",
			so.Committed, so.PurchasedUnits, sr.Committed, sr.PurchasedUnits)
	}
}

// TestSnapshotVersions: Restore reads exactly SnapshotVersion. Older
// images (versions 1 to 3) and newer ones are refused with an error
// naming the version found.
func TestSnapshotVersions(t *testing.T) {
	s := newTestServer(t, nil)
	var img bytes.Buffer
	if err := s.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf("\"version\": %d", SnapshotVersion)
	if !strings.Contains(img.String(), current) {
		t.Fatalf("snapshot is not version %d", SnapshotVersion)
	}
	for _, v := range []int{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			doc := strings.Replace(img.String(), current, fmt.Sprintf("\"version\": %d", v), 1)
			err := newTestServer(t, nil).Restore(strings.NewReader(doc))
			switch {
			case v == SnapshotVersion && err != nil:
				t.Fatalf("v%d snapshot refused: %v", v, err)
			case v != SnapshotVersion && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v))):
				t.Fatalf("v%d snapshot: err = %v, want a refusal naming version %d", v, err, v)
			}
		})
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
