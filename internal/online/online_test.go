package online_test

// The policies decide one batch at a time; a whole cycle of arrivals
// reaches them through the daemon's own loop, serve.Server.RunCycles,
// which is how production runs them too.

import (
	"context"
	"errors"
	"testing"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/maa"
	"metis/internal/online"
	"metis/internal/sched"
	"metis/internal/serve"
	"metis/internal/solvectx"
	"metis/internal/spm"
	"metis/internal/stats"
	"metis/internal/wan"
)

func workload(t *testing.T, net *wan.Network, k int, seed int64) []demand.Request {
	t.Helper()
	g, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.GenerateN(k)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func instance(t *testing.T, net *wan.Network, k int, seed int64) *sched.Instance {
	t.Helper()
	inst, err := sched.NewInstance(net, demand.DefaultSlots, workload(t, net, k, seed), sched.DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// forecastPlan plans capacity with MAA on a forecast workload of the
// same size but a different seed.
func forecastPlan(t *testing.T, net *wan.Network, k int) []int {
	t.Helper()
	res, err := maa.Solve(instance(t, net, k, 999), maa.Options{RNG: stats.NewRNG(9), Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	return res.Charged
}

// newServer returns a server whose hour-long epoch never binds the tick
// budget, so every run is deterministic.
func newServer(t *testing.T, net *wan.Network, pol serve.Policy) *serve.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{Net: net, Epoch: time.Hour, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// runCycle decides reqs as one billing cycle under pol.
func runCycle(t *testing.T, net *wan.Network, pol serve.Policy, reqs []demand.Request) (serve.CycleResult, *serve.Server) {
	t.Helper()
	srv := newServer(t, net, pol)
	res, err := srv.RunCycles(context.Background(), [][]demand.Request{reqs})
	if err != nil {
		t.Fatal(err)
	}
	return res[0], srv
}

func TestGreedyProfitNonNegative(t *testing.T) {
	net := wan.SubB4()
	res, srv := runCycle(t, net, serve.GreedyPolicy{}, workload(t, net, 150, 1))
	// Greedy only buys when value covers the purchase, so profit can
	// never go negative.
	if res.Profit < -1e-9 {
		t.Fatalf("greedy profit %v negative", res.Profit)
	}
	if res.Decided != 150 {
		t.Fatalf("decided %d of 150 requests", res.Decided)
	}
	led := srv.LedgerCopy()
	if led.Committed() != res.Accepted || led.Cost() != res.Cost {
		t.Fatalf("ledger holds %d requests at cost %v, result says %d at %v", led.Committed(), led.Cost(), res.Accepted, res.Cost)
	}
	if err := spm.CheckLedger(led.Loads(), led.Purchased()); err != nil {
		t.Fatalf("final loads exceed purchased bandwidth: %v", err)
	}
}

func TestPerSlotTraceConsistent(t *testing.T) {
	net := wan.SubB4()
	reqs := workload(t, net, 100, 2)
	res, srv := runCycle(t, net, serve.GreedyPolicy{}, reqs)
	recs := srv.EpochRecords()
	if len(recs) != demand.DefaultSlots {
		t.Fatalf("trace has %d slots, want %d", len(recs), demand.DefaultSlots)
	}
	arrivals := make([]int, demand.DefaultSlots)
	for _, r := range reqs {
		arrivals[r.Start]++
	}
	var arrived, accepted int
	for _, r := range recs {
		if r.Batch != arrivals[r.Slot] {
			t.Fatalf("slot %d decided %d requests, %d arrived", r.Slot, r.Batch, arrivals[r.Slot])
		}
		if r.Accepted > r.Batch {
			t.Fatalf("slot %d accepted %d of %d arrivals", r.Slot, r.Accepted, r.Batch)
		}
		arrived += r.Batch
		accepted += r.Accepted
	}
	if arrived != len(reqs) {
		t.Fatalf("trace saw %d arrivals, want %d", arrived, len(reqs))
	}
	if accepted != res.Accepted {
		t.Fatalf("trace accepted %d, cycle result has %d", accepted, res.Accepted)
	}
}

func TestProvisionedPoliciesRespectPlan(t *testing.T) {
	net := wan.SubB4()
	plan := forecastPlan(t, net, 120)
	res, srv := runCycle(t, net, &serve.TAAPolicy{Plan: plan}, workload(t, net, 120, 3))
	if res.Accepted == 0 {
		t.Fatal("taa accepted nothing into the plan")
	}
	// The taa policy never buys beyond its plan.
	led := srv.LedgerCopy()
	for e, units := range led.Purchased() {
		if units > plan[e] {
			t.Fatalf("bought %d units on link %d beyond plan %d", units, e, plan[e])
		}
	}
	if err := spm.CheckLedger(led.Loads(), plan); err != nil {
		t.Fatalf("loads exceed the plan: %v", err)
	}
}

func TestOnlineNeverBeatsOffline(t *testing.T) {
	// Hindsight check: the offline Metis profit (which sees the whole
	// cycle) should not be materially below the online greedy's.
	net := wan.SubB4()
	inst := instance(t, net, 150, 5)
	on, _ := runCycle(t, net, serve.GreedyPolicy{}, inst.Requests())
	off, err := core.Solve(inst, core.Config{Theta: 6, MAARounds: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if off.Profit < on.Profit-1e-6 {
		t.Fatalf("offline Metis %v below online greedy %v", off.Profit, on.Profit)
	}
}

// cancelAfter wraps a policy and cancels the run's context once after
// batches have been decided, modeling an operator abort mid-cycle.
type cancelAfter struct {
	serve.Policy
	cancel  context.CancelFunc
	decided int
	after   int
}

func (c *cancelAfter) Decide(ctx context.Context, led *serve.Ledger, inst *sched.Instance, epoch, slot int) (*online.State, error) {
	if c.decided >= c.after {
		c.cancel()
	}
	c.decided++
	return c.Policy.Decide(ctx, led, inst, epoch, slot)
}

func TestGreedyMidCycleCancellation(t *testing.T) {
	net := wan.SubB4()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel inside the second decided batch. Greedy never polls the
	// context, so that tick still commits; the loop must then stop
	// before the next tick with the typed sentinel, not return a partial
	// result.
	p := &cancelAfter{Policy: serve.GreedyPolicy{}, cancel: cancel, after: 1}
	srv := newServer(t, net, p)
	res, err := srv.RunCycles(ctx, [][]demand.Request{workload(t, net, 150, 3)})
	if res != nil {
		t.Fatalf("want no results on cancellation, got %+v", res)
	}
	if !errors.Is(err, solvectx.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled to match too, got %v", err)
	}
	if p.decided != 2 {
		t.Fatalf("policy decided %d batches, want 2", p.decided)
	}
	if srv.Epoch() >= demand.DefaultSlots {
		t.Fatalf("loop ran all %d ticks after the cancellation", srv.Epoch())
	}
}

func TestProvisionedTAAMidCycleCancellation(t *testing.T) {
	net := wan.SubB4()
	inst := instance(t, net, 150, 3)
	plan := forecastPlan(t, net, 150)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The already-dead context must surface from inside taa.SolveVar
	// (threaded via State.Context), not only from a driver's checkpoint.
	batch := make([]int, inst.NumRequests())
	for i := range batch {
		batch[i] = i
	}
	err := online.ProvisionedTAA{Plan: plan}.DecideBatch(online.NewState(ctx, inst), 0, batch)
	if !solvectx.Is(err) {
		t.Fatalf("want a solver stop sentinel, got %v", err)
	}
}

func TestProvisionedTAADeadlineMidCycle(t *testing.T) {
	net := wan.SubB4()
	plan := forecastPlan(t, net, 200)
	// An already-expired deadline aborts before any slot is decided.
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	srv := newServer(t, net, &serve.TAAPolicy{Plan: plan})
	res, err := srv.RunCycles(ctx, [][]demand.Request{workload(t, net, 200, 5)})
	if res != nil {
		t.Fatalf("want no results on expiry, got %+v", res)
	}
	if !errors.Is(err, solvectx.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if srv.Epoch() != 0 {
		t.Fatalf("expired run ticked %d times", srv.Epoch())
	}
}

func TestNewStateAtSeedsCommitments(t *testing.T) {
	inst := instance(t, wan.SubB4(), 20, 11)
	links := inst.Network().NumLinks()
	purchased := make([]int, links)
	loads := make([][]float64, links)
	for e := range loads {
		loads[e] = make([]float64, inst.Slots())
		purchased[e] = 2
		loads[e][0] = 1.5
	}
	st, err := online.NewStateAt(nil, inst, purchased, loads)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Purchased(); got[0] != 2 {
		t.Fatalf("purchased[0] = %d, want 2", got[0])
	}
	res := st.Residual()
	if res[0][0] != 0.5 {
		t.Fatalf("residual[0][0] = %v, want 0.5", res[0][0])
	}
	// Seeded state is copied, not aliased.
	loads[0][0] = 99
	if st.Loads()[0][0] != 1.5 {
		t.Fatal("NewStateAt aliased the caller's loads")
	}
	if _, err := online.NewStateAt(nil, inst, purchased[:1], loads); err == nil {
		t.Fatal("want shape error for short purchased vector")
	}
	if _, err := online.NewStateAt(nil, inst, purchased, loads[:1]); err == nil {
		t.Fatal("want shape error for short loads matrix")
	}
}

func TestPlanValidation(t *testing.T) {
	inst := instance(t, wan.SubB4(), 10, 6)
	if err := (online.ProvisionedTAA{Plan: []int{1}}).DecideBatch(online.NewState(nil, inst), 0, []int{0}); err == nil {
		t.Fatal("want error for wrong plan length")
	}
}

func TestEmptyWorkload(t *testing.T) {
	res, srv := runCycle(t, wan.SubB4(), serve.GreedyPolicy{}, nil)
	if res != (serve.CycleResult{}) {
		t.Fatalf("empty workload produced %+v", res)
	}
	if srv.Epoch() != demand.DefaultSlots {
		t.Fatalf("empty cycle ran %d ticks, want %d", srv.Epoch(), demand.DefaultSlots)
	}
}
