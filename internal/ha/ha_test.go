package ha

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/serve"
	"metis/internal/spm"
	"metis/internal/wal"
	"metis/internal/wan"
)

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

// op is one step of the deterministic schedule: submit a batch (batch
// != nil) or commit an epoch tick.
type op struct {
	batch []demand.Request
}

// buildOps interleaves submit and tick steps over pool in batches of
// batchSize, with two trailing ticks to drain the final batch.
func buildOps(pool []demand.Request, batchSize int) []op {
	var ops []op
	for lo := 0; lo < len(pool); lo += batchSize {
		hi := lo + batchSize
		if hi > len(pool) {
			hi = len(pool)
		}
		ops = append(ops, op{batch: pool[lo:hi]}, op{})
	}
	return append(ops, op{}, op{})
}

func applyOp(t *testing.T, s *serve.Server, o op) {
	t.Helper()
	if o.batch == nil {
		s.Tick(context.Background())
		return
	}
	for _, r := range o.batch {
		if _, err := s.Submit(r); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
}

// failoverVariant parameterizes the differential failover test: the
// policy under admission and how often the standby refreshes its
// snapshot (1 = the snapshot always covers the whole log, so promotion
// is pure restore; a huge value leaves only the initial near-empty
// snapshot, so promotion is pure WAL redo). stateOnly selects the
// weaker tier DESIGN.md promises for a warm-cache policy recovered by
// redo alone: the promoted image equals the leader's on the ledger and
// the replayed policy state, and the resumed schedule drains cleanly,
// but its decisions need not match the control's.
type failoverVariant struct {
	name      string
	mkPolicy  func(t *testing.T) serve.Policy
	snapEvery int
	seeds     []int64
	stateOnly bool
}

// TestFailoverBitIdentical is the differential proof of the failover
// design: kill the leader at a randomized mid-schedule point, promote
// the standby from its mirrored WAL + snapshot, resume the exact same
// schedule, and require the resulting decisions, ledger and profit to
// be identical to an uninterrupted control run (stateOnly variants:
// the promoted image identical to the leader's last one instead).
func TestFailoverBitIdentical(t *testing.T) {
	variants := []failoverVariant{
		{
			// Pure redo path: stateless policy, every committed tick
			// replayed from its WAL record.
			name:      "greedy-redo",
			mkPolicy:  func(t *testing.T) serve.Policy { return serve.GreedyPolicy{} },
			snapEvery: 1 << 30,
			seeds:     []int64{1, 2, 3},
		},
		{
			// Redo path with policy catch-up: the incremental policy's
			// plan is re-adopted from the tick records' deltas and its
			// observation set rebuilt from the replayed batches. Its warm
			// model is a cache the next replan rebuilds, so this tier
			// promises state, not decisions. Seeds whose kill point
			// leaves committed ticks to replay.
			name: "incremental-redo",
			mkPolicy: func(t *testing.T) serve.Policy {
				p, err := serve.NewPolicy("metis-incremental", nil, 2, core.Config{Theta: 2, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			snapEvery: 1 << 30,
			seeds:     []int64{5, 6, 10},
			stateOnly: true,
		},
		{
			// Snapshot path: the warm-cache incremental policy needs the
			// per-tick snapshot stream for bit-identity (see DESIGN.md);
			// the WAL tail then carries only post-snapshot arrivals.
			name: "incremental-snapshot",
			mkPolicy: func(t *testing.T) serve.Policy {
				p, err := serve.NewPolicy("metis-incremental", nil, 2, core.Config{Theta: 2, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			snapEvery: 1,
			seeds:     []int64{6, 7},
		},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, seed := range v.seeds {
				runFailover(t, v, seed)
			}
		})
	}
}

func runFailover(t *testing.T, v failoverVariant, seed int64) {
	t.Helper()
	net := wan.SubB4()
	pool := genPool(t, net, 60, 515)
	ops := buildOps(pool, 12)
	// Kill after at least one op and before the schedule ends, at a
	// seed-randomized point — submit/tick boundaries both included.
	killAt := 1 + rand.New(rand.NewSource(seed)).Intn(len(ops)-1)
	t.Logf("seed %d: kill after op %d/%d", seed, killAt, len(ops))

	leaderDir := filepath.Join(t.TempDir(), "leader-wal")
	standbyDir := filepath.Join(t.TempDir(), "standby-wal")

	walLog, err := wal.Open(leaderDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(l *wal.Log) *serve.Server {
		s, err := serve.New(serve.Config{
			Net:    net,
			Epoch:  time.Minute,
			Policy: v.mkPolicy(t),
			WAL:    l,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	leader := mk(walLog)
	tok, err := LoadOrInitToken(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	leader.SetToken(tok)
	nodeL := NewLeader(leader, leaderDir)
	mux := http.NewServeMux()
	mux.Handle("/", leader.Handler())
	nodeL.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	standby := mk(nil)
	standby.SetStandby()
	nodeS := NewStandby(standby, standbyDir, ts.URL, ts.Client())
	nodeS.snapEvery = v.snapEvery

	ctx := context.Background()
	for i := 0; i < killAt; i++ {
		applyOp(t, leader, ops[i])
		if _, err := nodeS.FetchOnce(ctx); err != nil {
			t.Fatalf("fetch after op %d: %v", i, err)
		}
	}
	var leaderImg serve.Snapshot
	if v.stateOnly {
		leaderImg = snapshotOf(t, leader)
	}
	// Crash: the leader process is gone. Nothing it held in memory
	// survives; the standby has only what it already mirrored.
	ts.Close()
	walLog.Close()

	rep, err := nodeS.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if rep.Token <= tok {
		t.Fatalf("promotion token %d not newer than leader's %d", rep.Token, tok)
	}
	if standby.Role() != serve.RoleLeader {
		t.Fatalf("promoted server role %q", standby.Role())
	}
	if v.stateOnly {
		if rep.Recovered.Ticks == 0 {
			t.Fatalf("seed %d: promotion replayed no ticks; the redo path went untested", seed)
		}
		requireSameState(t, leaderImg, snapshotOf(t, standby))
	}
	for i := killAt; i < len(ops); i++ {
		applyOp(t, standby, ops[i])
	}
	if v.stateOnly {
		requireDrained(t, standby, len(pool))
		t.Logf("seed %d: token %d, replayed %d arrivals / %d ticks", seed, rep.Token, rep.Recovered.Arrivals, rep.Recovered.Ticks)
		return
	}

	// Control: the same schedule, uninterrupted, no WAL.
	ctrl := mk(nil)
	for _, o := range ops {
		applyOp(t, ctrl, o)
	}

	ledC, ledP := ctrl.LedgerCopy(), standby.LedgerCopy()
	if !ledP.Equal(ledC) {
		t.Fatal("promoted ledger differs from uninterrupted control")
	}
	if err := spm.CheckLedger(ledP.Loads(), ledP.Purchased()); err != nil {
		t.Fatalf("promoted ledger invariants: %v", err)
	}
	sc, sp := ctrl.Stats(), standby.Stats()
	if sp.Revenue != sc.Revenue || sp.PurchasedCost != sc.PurchasedCost {
		t.Fatalf("profit diverged: control revenue %v cost %v, promoted revenue %v cost %v",
			sc.Revenue, sc.PurchasedCost, sp.Revenue, sp.PurchasedCost)
	}
	if sp.Committed != sc.Committed || sp.PurchasedUnits != sc.PurchasedUnits {
		t.Fatalf("ledger stats diverged: control committed=%d units=%d, promoted committed=%d units=%d",
			sc.Committed, sc.PurchasedUnits, sp.Committed, sp.PurchasedUnits)
	}
	if sp.QueueDepth != 0 || sc.QueueDepth != 0 {
		t.Fatalf("schedule did not drain (control %d, promoted %d)", sc.QueueDepth, sp.QueueDepth)
	}

	// Decision records: the promoted server holds one for every arrival
	// at or after its recovery horizon (snapshot queue + WAL tail + the
	// resumed schedule); each must agree with the control exactly.
	compared := 0
	for id := int64(1); id <= int64(len(pool)); id++ {
		dp := standby.Decision(id)
		if dp == nil {
			continue // decided before the snapshot horizon; covered by ledger equality
		}
		dc := ctrl.Decision(id)
		if dc == nil {
			t.Fatalf("promoted has decision %d, control does not", id)
		}
		if dp.Status != dc.Status {
			t.Fatalf("request %d: control %s, promoted %s", id, dc.Status, dp.Status)
		}
		if len(dp.Links) != len(dc.Links) {
			t.Fatalf("request %d: paths differ (%v vs %v)", id, dc.Links, dp.Links)
		}
		for i := range dp.Links {
			if dp.Links[i] != dc.Links[i] {
				t.Fatalf("request %d: paths differ (%v vs %v)", id, dc.Links, dp.Links)
			}
		}
		compared++
	}
	// Everything submitted at or after the kill must have a record.
	var postKill int
	for i := killAt; i < len(ops); i++ {
		postKill += len(ops[i].batch)
	}
	if compared < postKill {
		t.Fatalf("compared only %d decisions, %d submitted after the kill", compared, postKill)
	}
	t.Logf("seed %d: token %d, fromSnapshot=%v, replayed %d arrivals / %d ticks, compared %d decisions",
		seed, rep.Token, rep.FromSnapshot, rep.Recovered.Arrivals, rep.Recovered.Ticks, compared)
}

// snapshotOf decodes s's current crash-recovery image.
func snapshotOf(t *testing.T, s *serve.Server) serve.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var img serve.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &img); err != nil {
		t.Fatal(err)
	}
	return img
}

// requireSameState asserts the redo tier: the promoted image carries the
// leader's ledger and the policy state redo replays (seen workload,
// adopted plan, replan clock).
func requireSameState(t *testing.T, lead, prom serve.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(lead.Ledger, prom.Ledger) {
		t.Fatal("promoted ledger image differs from the leader's")
	}
	if lead.Policy == nil || prom.Policy == nil {
		t.Fatalf("policy state missing: leader %v, promoted %v", lead.Policy != nil, prom.Policy != nil)
	}
	lp, pp := lead.Policy, prom.Policy
	if !reflect.DeepEqual(lp.Seen, pp.Seen) {
		t.Fatalf("seen workload differs: leader %d requests, promoted %d", len(lp.Seen), len(pp.Seen))
	}
	if !reflect.DeepEqual(lp.Plan, pp.Plan) || lp.HavePlan != pp.HavePlan {
		t.Fatalf("plan differs: leader %v (have %v), promoted %v (have %v)", lp.Plan, lp.HavePlan, pp.Plan, pp.HavePlan)
	}
	if lp.LastReplan != pp.LastReplan {
		t.Fatalf("replan clock differs: leader %d, promoted %d", lp.LastReplan, pp.LastReplan)
	}
}

// requireDrained asserts that s decided every one of the n arrivals and
// that its ledger is internally consistent.
func requireDrained(t *testing.T, s *serve.Server, n int) {
	t.Helper()
	led := s.LedgerCopy()
	if err := spm.CheckLedger(led.Loads(), led.Purchased()); err != nil {
		t.Fatalf("promoted ledger invariants: %v", err)
	}
	if q := s.Stats().QueueDepth; q != 0 {
		t.Fatalf("schedule did not drain (queue %d)", q)
	}
	for id := int64(1); id <= int64(n); id++ {
		d := s.Decision(id)
		if d == nil || d.Status == serve.StatusQueued {
			t.Fatalf("request %d undecided after the resumed schedule: %+v", id, d)
		}
	}
}

// TestPromotionFencesLiveOldLeader covers the partitioned-not-dead
// case: the old leader is still up when the standby promotes. The
// promotion's fence call must step it down, it must refuse submits
// from then on, and a standby that has followed the new token must
// refuse the old leader's stream.
func TestPromotionFencesLiveOldLeader(t *testing.T) {
	net := wan.SubB4()
	pool := genPool(t, net, 24, 99)
	leaderDir := filepath.Join(t.TempDir(), "leader-wal")
	standbyDir := filepath.Join(t.TempDir(), "standby-wal")

	walLog, err := wal.Open(leaderDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := serve.New(serve.Config{Net: net, Epoch: time.Minute, WAL: walLog})
	if err != nil {
		t.Fatal(err)
	}
	tok, err := LoadOrInitToken(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	leader.SetToken(tok)
	nodeL := NewLeader(leader, leaderDir)
	mux := http.NewServeMux()
	mux.Handle("/", leader.Handler())
	nodeL.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, r := range pool[:12] {
		if _, err := leader.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	leader.Tick(context.Background())

	standby, err := serve.New(serve.Config{Net: net, Epoch: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	standby.SetStandby()
	nodeS := NewStandby(standby, standbyDir, ts.URL, ts.Client())
	if _, err := nodeS.FetchOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The old leader stays alive across the promotion.
	rep, err := nodeS.Promote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OldFenced {
		t.Fatal("promotion did not fence the live old leader")
	}
	if got := leader.Role(); got != serve.RoleFenced {
		t.Fatalf("old leader role %q, want fenced", got)
	}
	if _, err := leader.Submit(pool[12]); err != serve.ErrFenced {
		t.Fatalf("fenced leader accepted a submit (err %v)", err)
	}
	if h := leader.Health(); h.Healthy() || h.Status != serve.HealthFenced {
		t.Fatalf("fenced leader health %+v", h)
	}

	// A second standby that has already followed the new token must
	// reject the old leader's stream as stale.
	lateDir := filepath.Join(t.TempDir(), "late-wal")
	late, err := serve.New(serve.Config{Net: net, Epoch: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	late.SetStandby()
	nodeLate := NewStandby(late, lateDir, ts.URL, ts.Client())
	nodeLate.maxSeen.Store(rep.Token)
	if _, err := nodeLate.FetchOnce(context.Background()); err == nil {
		t.Fatal("standby followed a stale leader")
	}

	// A fence carrying a token that is not strictly newer than the
	// target's own must be refused (409).
	if nodeS.fencePrimary(context.Background(), tok) {
		t.Fatal("non-newer token fenced the server")
	}
}

// TestPromotionLosesUnfetchedAcks pins what an ack guarantees: it is
// durable on the leader's own disk, and a standby holds only what its
// last fetch mirrored. Acks newer than that fetch survive a restart of
// the leader from its log but not a promotion of the standby.
func TestPromotionLosesUnfetchedAcks(t *testing.T) {
	net := wan.SubB4()
	pool := genPool(t, net, 20, 41)
	mirrored, unfetched := pool[:12], pool[12:]
	leaderDir := filepath.Join(t.TempDir(), "leader-wal")
	standbyDir := filepath.Join(t.TempDir(), "standby-wal")

	walLog, err := wal.Open(leaderDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := serve.New(serve.Config{Net: net, Epoch: time.Minute, WAL: walLog})
	if err != nil {
		t.Fatal(err)
	}
	tok, err := LoadOrInitToken(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	leader.SetToken(tok)
	nodeL := NewLeader(leader, leaderDir)
	mux := http.NewServeMux()
	mux.Handle("/", leader.Handler())
	nodeL.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	standby, err := serve.New(serve.Config{Net: net, Epoch: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	standby.SetStandby()
	nodeS := NewStandby(standby, standbyDir, ts.URL, ts.Client())

	// Submit returns only once the arrival frame is fsynced: every id
	// below is a durable ack.
	submit := func(reqs []demand.Request) []int64 {
		var ids []int64
		for _, r := range reqs {
			d, err := leader.Submit(r)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, d.ID)
		}
		return ids
	}
	mirroredIDs := submit(mirrored)
	if _, err := nodeS.FetchOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	lostIDs := submit(unfetched)
	// The leader dies before the standby's next fetch.
	ts.Close()
	walLog.Close()

	if _, err := nodeS.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range mirroredIDs {
		if d := standby.Decision(id); d == nil || d.Status != serve.StatusQueued {
			t.Fatalf("mirrored ack %d after promotion: %+v, want queued", id, d)
		}
	}
	for _, id := range lostIDs {
		if d := standby.Decision(id); d != nil {
			t.Fatalf("unfetched ack %d survived promotion: %+v", id, d)
		}
	}
	if got := standby.Stats().QueueDepth; got != len(mirroredIDs) {
		t.Fatalf("promoted queue depth %d, want the %d mirrored acks", got, len(mirroredIDs))
	}

	// The same acks are all on the leader's disk: a restart from its own
	// log recovers every one of them.
	relog, err := wal.Open(leaderDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer relog.Close()
	restarted, err := serve.New(serve.Config{Net: net, Epoch: time.Minute, WAL: relog})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	for _, id := range append(mirroredIDs, lostIDs...) {
		if d := restarted.Decision(id); d == nil || d.Status != serve.StatusQueued {
			t.Fatalf("ack %d after a leader restart: %+v, want queued", id, d)
		}
	}
}

// TestTokenPersistence: fencing tokens survive restarts and mint from 1.
func TestTokenPersistence(t *testing.T) {
	dir := t.TempDir()
	tok, err := LoadOrInitToken(dir)
	if err != nil || tok != 1 {
		t.Fatalf("first LoadOrInitToken = %d, %v; want 1", tok, err)
	}
	if err := SaveToken(dir, 7); err != nil {
		t.Fatal(err)
	}
	tok, err = LoadOrInitToken(dir)
	if err != nil || tok != 7 {
		t.Fatalf("LoadOrInitToken after save = %d, %v; want 7", tok, err)
	}
	// The file is plain JSON next to the WAL segments.
	if _, err := os.Stat(filepath.Join(dir, tokenName)); err != nil {
		t.Fatal(err)
	}
}
