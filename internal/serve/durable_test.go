package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"metis/internal/demand"
	"metis/internal/online"
	"metis/internal/sched"
	"metis/internal/spm"
	"metis/internal/wal"
	"metis/internal/wan"
)

func walServer(t *testing.T, l *wal.Log, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{Net: wan.SubB4(), Epoch: time.Minute, WAL: l}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWALRecoveryRoundTrip: a WAL-backed server crashes with committed
// epochs and a queued tail; a fresh process replays the log and
// finishes the schedule exactly like an uninterrupted control run.
func TestWALRecoveryRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	pool := genPool(t, wan.SubB4(), 40, 2026)

	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	crashed := walServer(t, l, nil)
	for _, r := range pool[:20] {
		if _, err := crashed.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	crashed.Tick(context.Background())
	for _, r := range pool[20:30] {
		if _, err := crashed.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	// Crash. Every acked arrival and the committed tick are on disk;
	// the in-memory server is abandoned.
	l.Close()

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered := walServer(t, l2, nil)
	st, err := recovered.RecoverWAL()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st.Arrivals != 30 || st.Ticks != 1 {
		t.Fatalf("recovered %d arrivals / %d ticks, want 30 / 1", st.Arrivals, st.Ticks)
	}
	if recovered.Epoch() != 1 {
		t.Fatalf("recovered epoch %d, want 1", recovered.Epoch())
	}

	ctrl := newTestServer(t, func(c *Config) { c.Epoch = time.Minute })
	for _, r := range pool[:20] {
		if _, err := ctrl.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.Tick(context.Background())
	for _, r := range pool[20:30] {
		if _, err := ctrl.Submit(r); err != nil {
			t.Fatal(err)
		}
	}

	// Both finish the schedule.
	for _, s := range []*Server{recovered, ctrl} {
		for _, r := range pool[30:] {
			if _, err := s.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		s.Tick(context.Background())
	}

	if !recovered.LedgerCopy().Equal(ctrl.LedgerCopy()) {
		t.Fatal("recovered ledger differs from control")
	}
	sr, sc := recovered.Stats(), ctrl.Stats()
	if sr.Revenue != sc.Revenue || sr.PurchasedCost != sc.PurchasedCost {
		t.Fatalf("profit diverged: recovered %v/%v, control %v/%v",
			sr.Revenue, sr.PurchasedCost, sc.Revenue, sc.PurchasedCost)
	}
	for id := int64(1); id <= int64(len(pool)); id++ {
		dr, dc := recovered.Decision(id), ctrl.Decision(id)
		if dr == nil || dc == nil {
			t.Fatalf("decision %d missing (recovered %v, control %v)", id, dr != nil, dc != nil)
		}
		if dr.Status != dc.Status {
			t.Fatalf("request %d: recovered %s, control %s", id, dr.Status, dc.Status)
		}
	}
	if err := spm.CheckLedger(recovered.LedgerCopy().Loads(), recovered.LedgerCopy().Purchased()); err != nil {
		t.Fatalf("ledger invariants: %v", err)
	}
}

// TestWALCorruptTailRecovery: disk damage at the log's tail loses at
// most the damaged suffix — recovery admits a clean prefix of the
// acked arrivals, never a phantom, and the server keeps working.
func TestWALCorruptTailRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	pool := genPool(t, wan.SubB4(), 12, 77)

	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := walServer(t, l, nil)
	for _, r := range pool {
		if _, err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Chop into the last record.
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	last := segs[len(segs)-1]
	path := filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", last.Seq))
	if err := os.Truncate(path, last.Size-5); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := walServer(t, l2, nil)
	st, err := rec.RecoverWAL()
	if err != nil {
		t.Fatalf("recover after tail damage: %v", err)
	}
	if st.Arrivals != len(pool)-1 {
		t.Fatalf("recovered %d arrivals, want %d (exactly the undamaged prefix)", st.Arrivals, len(pool)-1)
	}
	// The recovered arrivals are the exact prefix, same requests.
	for id := int64(1); id <= int64(st.Arrivals); id++ {
		d := rec.Decision(id)
		if d == nil || d.Status != StatusQueued {
			t.Fatalf("arrival %d not re-queued (%+v)", id, d)
		}
		if d.Request.Src != pool[id-1].Src || d.Request.Dst != pool[id-1].Dst || d.Request.Value != pool[id-1].Value {
			t.Fatalf("arrival %d does not match what was acked", id)
		}
	}
	if d := rec.Decision(int64(len(pool))); d != nil {
		t.Fatalf("phantom decision for the torn arrival: %+v", d)
	}
	// The repaired log accepts new work.
	if _, err := rec.Submit(pool[len(pool)-1]); err != nil {
		t.Fatalf("submit after repair: %v", err)
	}
	rec.Tick(context.Background())
	if q := rec.Stats().QueueDepth; q != 0 {
		t.Fatalf("queue depth %d after tick", q)
	}
}

// TestStandbyRefusesTraffic: a standby answers health checks but takes
// no submits and performs no ticks until promoted.
func TestStandbyRefusesTraffic(t *testing.T) {
	s := newTestServer(t, nil)
	s.SetStandby()
	if _, err := s.Submit(goodRequest(1)); err != ErrStandby {
		t.Fatalf("standby submit err = %v, want ErrStandby", err)
	}
	s.Tick(context.Background())
	if s.Epoch() != 0 {
		t.Fatalf("standby ticked to epoch %d", s.Epoch())
	}
	h := s.Health()
	if h.Status != HealthStandby || !h.Healthy() {
		t.Fatalf("standby health %+v", h)
	}
	s.SetLeader()
	if _, err := s.Submit(goodRequest(1)); err != nil {
		t.Fatalf("promoted submit err = %v", err)
	}
	s.Tick(context.Background())
	if s.Epoch() != 1 {
		t.Fatalf("promoted server did not tick (epoch %d)", s.Epoch())
	}
}

// TestRecoverWALRefusals: every frame DESIGN.md says recovery refuses is
// refused. Each log is a good arrival (id 1), the bad frame(s), then a
// good arrival (id 9) written through wal.Append with the live encoders.
// RecoverWAL must return the named error having applied the prefix
// (ticks good ticks), not counted the bad tick as committed, left
// arrival 1 queued and the ledger empty, and touched nothing after it.
// A log written on another network is refused the same way, and
// ApplyLog refuses a server that has already served.
func TestRecoverWALRefusals(t *testing.T) {
	type frame struct {
		typ  byte
		body []byte
	}
	arrival := func(id int64) frame {
		req := goodRequest(10)
		req.ID = int(id)
		return frame{walRecArrival, appendArrival(nil, &req)}
	}
	tick := func(tr walTick) frame { return frame{walRecTick, encodeTick(&tr)} }
	inst, err := sched.NewInstance(wan.SubB4(), demand.DefaultSlots, []demand.Request{goodRequest(10)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := inst.Path(0, 0).Links // a path of goodRequest's on SUB-B4
	away := 0                     // a link that does not leave goodRequest's source
	for wan.SubB4().Link(away).From == goodRequest(10).Src {
		away++
	}
	accept := func(id int64) walOutcome {
		return walOutcome{ID: id, Kind: walKindAccept, Links: path}
	}
	cases := []struct {
		name    string
		bad     []frame
		wantErr string
		ticks   int // good ticks before the bad frame
	}{
		{"phantom id", []frame{tick(walTick{Outcomes: []walOutcome{accept(1), accept(2)}})}, "phantom", 0},
		{"epoch ahead of cursor", []frame{tick(walTick{Epoch: 1, Slot: 1, Outcomes: []walOutcome{accept(1)}})}, "tick gap", 0},
		{"slot disagrees with epoch", []frame{tick(walTick{Epoch: 0, Slot: 1, Outcomes: []walOutcome{accept(1)}})}, "claims slot 1", 0},
		{"id repeated in one tick", []frame{arrival(2), tick(walTick{Outcomes: []walOutcome{
			{ID: 2, Kind: walKindExpired}, {ID: 2, Kind: walKindExpired},
		}})}, "repeats id 2", 0},
		{"outcome kind outside the enum", []frame{tick(walTick{Outcomes: []walOutcome{{ID: 1, Kind: 9}}})}, "outcome kind 9", 0},
		{"accept on a link off the network", []frame{tick(walTick{Outcomes: []walOutcome{
			{ID: 1, Kind: walKindAccept, Links: []int{30}},
		}})}, "link 30 is not on SUB-B4", 0},
		{"accept on links that are not a path", []frame{tick(walTick{Outcomes: []walOutcome{
			{ID: 1, Kind: walKindAccept, Links: []int{away}},
		}})}, "the path is at DC 0", 0},
		{"start outside the window", []frame{tick(walTick{Outcomes: []walOutcome{
			{ID: 1, Kind: walKindAccept, Links: path, Start: -1},
		}})}, "outside its window", 0},
		{"purchase on the wrong link count", []frame{tick(walTick{Outcomes: []walOutcome{accept(1)}, Purchased: []int{1, 2, 3}})}, "buys on 3 links", 0},
		{"unknown record type", []frame{{99, []byte("x")}}, "record type 99", 0},
		{"JSON-era arrival", []frame{{1, []byte(`{"id":2,"req":{"id":2,"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":10}}`)}}, "JSON-era", 0},
		{"JSON-era tick", []frame{{2, []byte(`{"epoch":0,"slot":0}`)}}, "JSON-era", 0},
		{"JSON-era fence", []frame{{3, []byte(`{"token":7}`)}}, "JSON-era", 0},
		{"arrival repeats a known id", []frame{arrival(1)}, "id 1 is already known", 0},
		{"arrival id below 1", []frame{arrival(0)}, "id 0 was never assigned", 0},
		{"tick at an applied epoch", []frame{tick(walTick{}), tick(walTick{})}, "epoch 0 is already applied", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			l, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			frames := append(append([]frame{arrival(1)}, tc.bad...), arrival(9))
			for _, f := range frames {
				if _, err := l.Append(f.typ, f.body); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			s := walServer(t, l2, nil)
			st, err := s.RecoverWAL()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RecoverWAL error = %v, want one naming %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), " at 1:") {
				t.Fatalf("RecoverWAL error = %v, want one naming the offset", err)
			}
			if s.Decision(1) == nil {
				t.Fatal("the good arrival before the bad frame was not applied")
			}
			if st.Ticks != tc.ticks || s.Epoch() != tc.ticks {
				t.Fatalf("refused tick counted as committed: %d ticks, epoch %d, want %d", st.Ticks, s.Epoch(), tc.ticks)
			}
			if ids := queuedIDs(s); !slices.Contains(ids, 1) {
				t.Fatalf("queue after the refusal holds %v, want arrival 1 still queued", ids)
			}
			if led := s.LedgerCopy(); led.Committed() != 0 || led.PurchasedUnits() != 0 {
				t.Fatalf("refused tick moved the ledger: %d committed, %d units", led.Committed(), led.PurchasedUnits())
			}
			if d := s.Decision(9); d != nil {
				t.Fatalf("arrival after the bad frame was applied: %+v", d)
			}
		})
	}

	// A SUB-B4 leader's log: one tick that accepts on SUB-B4 paths.
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	leader := walServer(t, l, nil)
	for _, r := range genPool(t, wan.SubB4(), 8, 3) {
		r.Value *= 20
		if _, err := leader.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	leader.Tick(context.Background())
	if leader.Stats().Accepted == 0 {
		t.Fatal("the SUB-B4 leader accepted nothing")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	t.Run("SUB-B4 log on a B4 server", func(t *testing.T) {
		s := newTestServer(t, func(c *Config) { c.Net = wan.B4() })
		if _, err := s.ApplyLog(dir); err == nil || !strings.Contains(err.Error(), "wal tick 0 at") {
			t.Fatalf("ApplyLog error = %v, want a refusal of the tick", err)
		}
		if led := s.LedgerCopy(); s.Epoch() != 0 || led.Committed() != 0 || led.PurchasedUnits() != 0 {
			t.Fatalf("refused log moved state: epoch %d, %d committed, %d units", s.Epoch(), led.Committed(), led.PurchasedUnits())
		}
	})
	t.Run("ApplyLog after a submit", func(t *testing.T) {
		s := newTestServer(t, nil)
		if _, err := s.Submit(goodRequest(10)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyLog(dir); err == nil || !strings.Contains(err.Error(), "did not come from the log") {
			t.Fatalf("ApplyLog error = %v, want a refusal", err)
		}
	})
}

// queuedIDs returns the ids in s's intake queue, in queue order.
func queuedIDs(s *Server) []int64 {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	var ids []int64
	for _, p := range s.in.queue {
		ids = append(ids, p.id)
	}
	return ids
}

// failingPolicy wraps a policy and fails its decision at one epoch with
// a plain (non-budget) error.
type failingPolicy struct {
	Policy
	epoch int
}

func (p failingPolicy) Decide(ctx context.Context, led *Ledger, inst *sched.Instance, epoch, slot int) (*online.State, error) {
	if epoch == p.epoch {
		return nil, errors.New("injected policy failure")
	}
	return p.Policy.Decide(ctx, led, inst, epoch, slot)
}

// TestRecoveredEqualsLive: a WAL-backed server with the -check sweep
// sees accepts and declines, a policy error, an expired window, degraded
// ticks (stallPolicy) and a cycle wrap, then crashes with a queued tail.
// RecoverWAL into a fresh server must reproduce every decision record
// and every counter the leader reported, field for field. For
// metis-incremental (no injected policy error: the wrapper would hide
// its replay state) recovery must also reproduce the policy's cycle
// state: the seen workload, the adopted plan and the replan clock.
func TestRecoveredEqualsLive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy func(t *testing.T) Policy
		fails  bool // inject a policy error at epoch 1
	}{
		{"greedy", func(*testing.T) Policy { return GreedyPolicy{} }, true},
		{"stall", func(*testing.T) Policy { return stallPolicy{} }, true},
		{"metis-incremental", func(t *testing.T) Policy { return incrementalPolicy(t, 2) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := func(c *Config) {
				c.Epoch, c.TickBudget, c.Check = 20*time.Millisecond, 0.5, true
				c.Policy = tc.policy(t)
				if tc.fails {
					c.Policy = failingPolicy{Policy: c.Policy, epoch: 1}
				}
			}
			dir := filepath.Join(t.TempDir(), "wal")
			l, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			live := walServer(t, l, mut)
			submit := func(reqs ...demand.Request) {
				t.Helper()
				for _, r := range reqs {
					if _, err := live.Submit(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			pool := genPool(t, wan.SubB4(), 48, 28)
			for i := range pool {
				pool[i].Value *= 20 // worth buying for, so the ledger fills
			}
			poor := goodRequest(1e-6)
			poor.Rate = 0.9
			expired := goodRequest(100)
			expired.Start, expired.End = 0, 1

			submit(goodRequest(1e6), poor) // epoch 0: an accept and a decline
			submit(pool[:12]...)
			live.Tick(context.Background())
			submit(pool[12:20]...) // epoch 1: the policy fails
			live.Tick(context.Background())
			submit(expired) // epoch 2: a window that ended at slot 1
			submit(pool[20:28]...)
			live.Tick(context.Background())
			for live.Epoch() < demand.DefaultSlots {
				live.Tick(context.Background())
			}
			submit(pool[28:40]...) // epoch 12: slot 0 of the next cycle,
			submit(poor)           // with a decline the policy has seen
			live.Tick(context.Background())
			submit(pool[40:]...) // queued at the crash
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			recovered := walServer(t, l2, mut)
			if _, err := recovered.RecoverWAL(); err != nil {
				t.Fatalf("recover: %v", err)
			}

			sl, sr := live.Stats(), recovered.Stats()
			if tc.name == "stall" && sl.DegradedDecisions == 0 {
				t.Fatal("the stall run made no degraded decision")
			}
			if sl.Accepted == 0 || sl.Rejected == 0 {
				t.Fatalf("live run lacks accepts or declines: %+v", sl)
			}
			type counters struct {
				Epoch, QueueDepth                             int
				Submitted, Accepted, Rejected, DegradedEpochs int64
				DegradedDecisions, CheckFailures              int64
				Committed, PurchasedUnits                     int
				PurchasedCost, Revenue                        float64
			}
			pick := func(s Stats) counters {
				return counters{s.Epoch, s.QueueDepth, s.Submitted, s.Accepted, s.Rejected, s.DegradedEpochs,
					s.DegradedDecisions, s.CheckFailures, s.Committed, s.PurchasedUnits, s.PurchasedCost, s.Revenue}
			}
			cl, cr := pick(sl), pick(sr)
			if cl != cr {
				t.Fatalf("counters differ:\n live      %+v\n recovered %+v", cl, cr)
			}
			t.Logf("live = recovered: %+v", cl)
			var sawExpired, sawPolicyErr bool
			for id := int64(1); id <= int64(sl.Submitted); id++ {
				dl, dr := live.Decision(id), recovered.Decision(id)
				if !reflect.DeepEqual(dl, dr) {
					t.Fatalf("decision %d differs:\n live      %+v\n recovered %+v", id, dl, dr)
				}
				sawExpired = sawExpired || strings.Contains(dl.Reason, "expired")
				sawPolicyErr = sawPolicyErr || strings.Contains(dl.Reason, "injected policy failure")
			}
			if !sawExpired || sawPolicyErr != tc.fails {
				t.Fatalf("schedule missed a case: expired %v, policy error %v", sawExpired, sawPolicyErr)
			}
			if lp, ok := live.cfg.Policy.(*MetisPolicy); ok {
				requireSamePolicyState(t, lp, recovered.cfg.Policy.(*MetisPolicy))
			}
		})
	}
}

// requireSamePolicyState asserts what redo recovery promises of the
// metis-incremental policy: the recovered policy has seen the live one's
// workload, adopted its plan and kept its replan clock. Its warm
// incumbent and relaxation are caches the next replan rebuilds.
func requireSamePolicyState(t *testing.T, live, rec *MetisPolicy) {
	t.Helper()
	if live.rp == nil || rec.rp == nil {
		t.Fatalf("replan model missing: live %v, recovered %v", live.rp != nil, rec.rp != nil)
	}
	ls, rs := live.rp.Observed(), rec.rp.Observed()
	if len(ls) == 0 || !reflect.DeepEqual(ls, rs) {
		t.Fatalf("seen workload differs: live %d requests, recovered %d", len(ls), len(rs))
	}
	if !slices.Equal(live.plan, rec.plan) || live.havePlan != rec.havePlan {
		t.Fatalf("plan differs: live %v (have %v), recovered %v (have %v)", live.plan, live.havePlan, rec.plan, rec.havePlan)
	}
	if live.lastReplan != rec.lastReplan {
		t.Fatalf("replan clock differs: live %d, recovered %d", live.lastReplan, rec.lastReplan)
	}
}

// TestTickFencesOnWALFailure: a tick whose redo record cannot be made
// durable fences the server and commits nothing. The claimed batch goes
// back to the queue whole, every decision in it still reads queued, and
// LastCheckError names the WAL.
func TestTickFencesOnWALFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := walServer(t, l, nil)
	var ids []int64
	for i := 0; i < 5; i++ {
		r := goodRequest(1e6)
		r.Src, r.Dst = i%3, 3+i%3
		d, err := s.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, d.ID)
	}
	// Every arrival is durable; closing the log makes the tick's fsync
	// fail.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s.Tick(context.Background())

	if got := s.Role(); got != RoleFenced {
		t.Fatalf("role = %q after a WAL failure, want %q", got, RoleFenced)
	}
	st := s.Stats()
	if st.QueueDepth != len(ids) || st.Epoch != 0 || st.Accepted+st.Rejected != 0 || st.Committed != 0 {
		t.Fatalf("fenced tick moved state: %+v", st)
	}
	if !strings.Contains(st.LastCheckError, "wal") {
		t.Fatalf("LastCheckError = %q, want one naming the WAL", st.LastCheckError)
	}
	if got := queuedIDs(s); !slices.Equal(got, ids) {
		t.Fatalf("queue after the fence holds %v, want %v", got, ids)
	}
	for _, id := range ids {
		if d := s.Decision(id); d == nil || d.Status != StatusQueued {
			t.Fatalf("decision %d = %+v, want queued", id, d)
		}
	}
}

// renamed gives a policy its own name, and with it its own process-wide
// latency histograms.
type renamed struct {
	Policy
	name string
}

func (p renamed) Name() string { return p.name }

// TestTakeoverQueueWait: arrivals a server takes over, from the WAL or
// from a standby's applied mirror, wait from the takeover on: a standby stamps each arrival when it applies it. The
// first tick's scorecard row and every latency digest must read that
// wait; an arrival stamped with the zero time reads ≈ 9.2e12 ms.
func TestTakeoverQueueWait(t *testing.T) {
	const boundMillis = 60e3
	for _, via := range []string{"recover-wal", "promote"} {
		t.Run(via, func(t *testing.T) {
			mut := func(c *Config) { c.Policy = renamed{GreedyPolicy{}, "takeover-" + via} }
			dir := filepath.Join(t.TempDir(), "wal")
			l, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			src := walServer(t, l, mut)
			for i := 0; i < 3; i++ {
				if _, err := src.Submit(goodRequest(1e6)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			var dst *Server
			switch via {
			case "recover-wal":
				l2, err := wal.Open(dir, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer l2.Close()
				dst = walServer(t, l2, mut)
				if _, err := dst.RecoverWAL(); err != nil {
					t.Fatal(err)
				}
			case "promote":
				// A standby applies the log as it mirrors it, then
				// promotes with the calls ha.Promote makes.
				dst = walServer(t, nil, mut)
				dst.SetStandby()
				if _, err := dst.ApplyLog(dir); err != nil {
					t.Fatal(err)
				}
				l2, err := wal.Open(dir, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer l2.Close()
				if err := dst.SetWAL(l2); err != nil {
					t.Fatal(err)
				}
				if st, err := dst.RecoverWAL(); err != nil || st.Arrivals != 0 {
					t.Fatalf("promotion replayed %d arrivals the standby had applied (err %v)", st.Arrivals, err)
				}
				dst.SetLeader()
			}
			dst.Tick(context.Background())

			recs := dst.EpochRecords()
			if len(recs) != 1 || recs[0].Batch != 3 {
				t.Fatalf("scorecard = %+v, want one row deciding 3", recs)
			}
			if w := recs[0].QueueWaitMaxMillis; w < 0 || w > boundMillis {
				t.Fatalf("scorecard QueueWaitMaxMillis = %v, want in [0, %v]", w, boundMillis)
			}
			for name, sum := range dst.Stats().Latency {
				if sum.MaxMillis < 0 || sum.MaxMillis > boundMillis {
					t.Fatalf("latency %q MaxMillis = %v, want in [0, %v]", name, sum.MaxMillis, boundMillis)
				}
			}
		})
	}
}
