package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
// epochs and a queued tail; a fresh process replays the log (no
// snapshot at all) and finishes the schedule exactly like an
// uninterrupted control run.
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

// TestSnapshotRestoreAcrossCycleWrap: a snapshot taken in the last
// slots of a billing cycle restores into a server that then ticks
// through the cycle wrap (ledger + policy reset) exactly like the
// original — the reset happens from restored state, not fresh state.
func TestSnapshotRestoreAcrossCycleWrap(t *testing.T) {
	net := wan.SubB4()
	pool := genPool(t, net, 60, 909)
	mk := func() *Server {
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
	submit := func(s *Server, reqs []demand.Request) {
		t.Helper()
		for _, r := range reqs {
			if _, err := s.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	orig := mk()
	submit(orig, pool[:20])
	orig.Tick(context.Background()) // epoch 0 → 1
	submit(orig, pool[20:30])
	orig.Tick(context.Background()) // epoch 1 → 2
	// Spin the cycle forward to its final slot (epoch Slots-1).
	for orig.Epoch() < demand.DefaultSlots-1 {
		orig.Tick(context.Background())
	}
	submit(orig, pool[30:40]) // queued across the snapshot

	var img bytes.Buffer
	if err := orig.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := restored.Restore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != demand.DefaultSlots-1 {
		t.Fatalf("restored epoch %d, want %d", restored.Epoch(), demand.DefaultSlots-1)
	}

	// Both decide the queued batch in the cycle's last slot, then tick
	// across the wrap into slot 0 of the next cycle, then take fresh
	// work in the new cycle.
	step := func(s *Server) {
		s.Tick(context.Background()) // last slot: decides pool[30:40]
		submit(s, pool[40:50])
		s.Tick(context.Background()) // slot 0: ledger + policy reset, then decides
		submit(s, pool[50:])
		s.Tick(context.Background()) // slot 1 of the new cycle
	}
	step(orig)
	step(restored)

	if co, cr := orig.Epoch()/demand.DefaultSlots, restored.Epoch()/demand.DefaultSlots; co != 1 || cr != 1 {
		t.Fatalf("cycle after wrap: orig %d, restored %d, want 1", co, cr)
	}
	if !restored.LedgerCopy().Equal(orig.LedgerCopy()) {
		t.Fatal("ledgers diverged across the cycle wrap")
	}
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
	so, sr := orig.Stats(), restored.Stats()
	if so.Committed != sr.Committed || so.PurchasedUnits != sr.PurchasedUnits || so.Revenue != sr.Revenue {
		t.Fatalf("post-wrap stats diverged: orig %+v vs restored %+v", so, sr)
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
// (ticks good ticks), not counted the bad tick as committed, and
// touched nothing after it. A server also takes its state from one
// source: Restore onto a server with a WAL or one that applied a log
// record is refused, and so is ApplyLog onto a restored server.
func TestRecoverWALRefusals(t *testing.T) {
	type frame struct {
		typ  byte
		body []byte
	}
	arrival := func(id int64) frame {
		req := goodRequest(10)
		req.ID = int(id)
		return frame{walRecArrival, encodeArrival(&req)}
	}
	tick := func(tr walTick) frame { return frame{walRecTick, encodeTick(&tr)} }
	accept := func(id int64) walOutcome {
		return walOutcome{ID: id, Kind: walKindAccept, Links: []int{0}}
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
		{"unknown record type", []frame{{99, []byte("x")}}, "record type 99", 0},
		{"JSON-era arrival", []frame{{1, []byte(`{"id":2,"req":{"id":2,"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":10}}`)}}, "JSON-era", 0},
		{"JSON-era tick", []frame{{2, []byte(`{"epoch":0,"slot":0}`)}}, "JSON-era", 0},
		{"JSON-era fence", []frame{{3, []byte(`{"token":7}`)}}, "JSON-era", 0},
		{"arrival repeats a known id", []frame{arrival(1)}, "id 1 is already known", 0},
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
			if d := s.Decision(9); d != nil {
				t.Fatalf("arrival after the bad frame was applied: %+v", d)
			}
		})
	}

	// A log holding only a fence frame, and an image with one queued
	// arrival.
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendFence(l, 7); err != nil {
		t.Fatal(err)
	}
	src := newTestServer(t, nil)
	if _, err := src.Submit(goodRequest(10)); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := src.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	t.Run("restore onto a server with a WAL", func(t *testing.T) {
		err := walServer(t, l, nil).Restore(bytes.NewReader(img.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "the log is the state") {
			t.Fatalf("Restore error = %v, want a refusal", err)
		}
	})
	t.Run("restore after ApplyLog", func(t *testing.T) {
		s := newTestServer(t, nil)
		if _, err := s.ApplyLog(dir); err != nil {
			t.Fatal(err)
		}
		if s.Token() != 7 {
			t.Fatalf("token %d after applying the fence, want 7", s.Token())
		}
		if err := s.Restore(bytes.NewReader(img.Bytes())); err == nil {
			t.Fatal("Restore onto a server that applied a log record succeeded")
		}
	})
	t.Run("ApplyLog after restore", func(t *testing.T) {
		s := newTestServer(t, nil)
		if err := s.Restore(bytes.NewReader(img.Bytes())); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyLog(dir); err == nil || !strings.Contains(err.Error(), "did not come from the log") {
			t.Fatalf("ApplyLog error = %v, want a refusal", err)
		}
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
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
// and every counter the leader reported, field for field.
func TestRecoveredEqualsLive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"greedy", GreedyPolicy{}},
		{"stall", stallPolicy{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := func(c *Config) {
				c.Epoch, c.TickBudget, c.Check = 20*time.Millisecond, 0.5, true
				c.Policy = failingPolicy{Policy: tc.policy, epoch: 1}
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
			submit(pool[28:40]...) // epoch 12: slot 0 of the next cycle
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
			if !sawExpired || !sawPolicyErr {
				t.Fatalf("schedule missed a case: expired %v, policy error %v", sawExpired, sawPolicyErr)
			}
		})
	}
}

// TestTickFencesOnWALFailure: a tick whose redo record cannot be made
// durable fences the server and commits nothing. The claimed batch goes
// back to the queue whole and in id order, every decision in it still
// reads queued, and LastCheckError names the WAL.
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
	var img bytes.Buffer
	if err := s.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(img.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Queue) != len(ids) {
		t.Fatalf("snapshot queue holds %d arrivals, want %d", len(snap.Queue), len(ids))
	}
	for i, q := range snap.Queue {
		if q.ID != ids[i] {
			t.Fatalf("snapshot queue[%d] = id %d, want %d (id order)", i, q.ID, ids[i])
		}
		if d := s.Decision(q.ID); d == nil || d.Status != StatusQueued {
			t.Fatalf("decision %d = %+v, want queued", q.ID, d)
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

// TestTakeoverQueueWait: arrivals a server takes over, from a snapshot's
// queue, from the WAL or from a standby's applied mirror, wait from the
// takeover on: a standby stamps each arrival when it applies it. The
// first tick's scorecard row and every latency digest must read that
// wait; an arrival stamped with the zero time reads ≈ 9.2e12 ms.
func TestTakeoverQueueWait(t *testing.T) {
	const boundMillis = 60e3
	for _, via := range []string{"restore", "recover-wal", "promote"} {
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
			var img bytes.Buffer
			if err := src.Snapshot(&img); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			var dst *Server
			switch via {
			case "restore":
				dst = walServer(t, nil, mut)
				if err := dst.Restore(&img); err != nil {
					t.Fatal(err)
				}
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
