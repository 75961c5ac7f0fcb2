package metis_test

// Cross-module integration tests and failure injection: degenerate
// topologies, pathological workloads, and end-to-end invariants that
// span several packages.

import (
	"context"
	"math"
	"testing"
	"time"

	"metis"
)

func TestDisconnectedTopologyRejectedAtInstanceBuild(t *testing.T) {
	// Two islands: requests across them must fail path enumeration.
	dcs := []metis.DC{
		{ID: 0, Name: "a", Region: metis.RegionEurope},
		{ID: 1, Name: "b", Region: metis.RegionEurope},
		{ID: 2, Name: "c", Region: metis.RegionAsia},
		{ID: 3, Name: "d", Region: metis.RegionAsia},
	}
	links := []metis.Link{
		{From: 0, To: 1, Price: 1}, {From: 1, To: 0, Price: 1},
		{From: 2, To: 3, Price: 1}, {From: 3, To: 2, Price: 1},
	}
	net, err := metis.NewNetwork("islands", dcs, links)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []metis.Request{{ID: 0, Src: 0, Dst: 2, Start: 0, End: 3, Rate: 0.1, Value: 1}}
	if _, err := metis.NewInstance(net, 12, reqs, 3); err == nil {
		t.Fatal("want error for request across disconnected islands")
	}
}

func TestSingleSlotCycle(t *testing.T) {
	net := metis.SubB4()
	reqs := []metis.Request{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 0, Rate: 0.5, Value: 5},
		{ID: 1, Src: 1, Dst: 0, Start: 0, End: 0, Rate: 0.3, Value: 0.01},
	}
	inst, err := metis.NewInstance(net, 1, reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := metis.Solve(inst, metis.Config{Theta: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profit < 0 {
		t.Fatalf("profit %v negative on single-slot cycle", res.Profit)
	}
}

func TestHugeRateRequestHandled(t *testing.T) {
	// A request needing 50 units (500 Gbps): everything must still
	// account correctly, and TAA under 10-unit links must decline it.
	net := metis.SubB4()
	reqs := []metis.Request{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 50, Value: 100},
		{ID: 1, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.5, Value: 4},
	}
	inst, err := metis.NewInstance(net, 12, reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	caps := inst.UniformCaps(10)
	res, err := metis.SolveTAA(inst, caps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Choice(0) != metis.Declined {
		t.Fatal("50-unit request accepted into 10-unit links")
	}
	if res.Schedule.Choice(1) == metis.Declined {
		t.Fatal("feasible request declined")
	}
}

func TestAllRequestsWorthless(t *testing.T) {
	// Zero-value workload: Metis must fall back to the empty schedule.
	net := metis.SubB4()
	var reqs []metis.Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, metis.Request{
			ID: i, Src: i % 3, Dst: 3 + i%3, Start: 0, End: 11, Rate: 0.4, Value: 0,
		})
	}
	inst, err := metis.NewInstance(net, 12, reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := metis.Solve(inst, metis.Config{Theta: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profit != 0 || res.Schedule.NumAccepted() != 0 {
		t.Fatalf("worthless workload: profit %v, accepted %d; want 0, 0",
			res.Profit, res.Schedule.NumAccepted())
	}
}

func TestPipelineConsistencyAcrossSolvers(t *testing.T) {
	// One workload through every solver; all invariants simultaneously.
	net := metis.B4()
	reqs, err := metis.GenerateWorkload(net, 120, 17)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := metis.NewInstance(net, metis.DefaultSlots, reqs, metis.DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}

	maaRes, err := metis.SolveMAA(inst, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	metisRes, err := metis.Solve(inst, metis.Config{Theta: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := metis.MinCost(inst)
	if err != nil {
		t.Fatal(err)
	}
	eco, err := metis.EcoFlow(inst)
	if err != nil {
		t.Fatal(err)
	}

	// Cost chain: LP bound <= MAA cost; MAA competitive with MinCost.
	if maaRes.Cost < maaRes.Relaxed.Cost-1e-6 {
		t.Fatalf("MAA cost %v below its LP bound %v", maaRes.Cost, maaRes.Relaxed.Cost)
	}
	if mc.Cost() < maaRes.Relaxed.Cost-1e-6 {
		t.Fatalf("MinCost cost %v below the LP bound %v", mc.Cost(), maaRes.Relaxed.Cost)
	}
	// Profit chain: Metis >= accept-all-via-MAA profit and >= 0.
	acceptAllProfit := maaRes.Schedule.Revenue() - maaRes.Cost
	if metisRes.Profit < acceptAllProfit-1e-6 {
		t.Fatalf("Metis profit %v below accept-all %v", metisRes.Profit, acceptAllProfit)
	}
	if metisRes.Profit < 0 || eco.Profit < -1e-9 {
		t.Fatal("negative profits")
	}
}

func TestOnlineOfflineConsistency(t *testing.T) {
	net := metis.SubB4()
	reqs, err := metis.GenerateWorkload(net, 100, 19)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := metis.NewInstance(net, metis.DefaultSlots, reqs, metis.DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	// Online: the daemon's greedy policy decides each slot's arrivals as
	// they come, on an epoch long enough that its budget never binds.
	srv, err := metis.NewServer(metis.ServeConfig{Net: net, Epoch: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := srv.RunCycles(context.Background(), [][]metis.Request{reqs})
	if err != nil {
		t.Fatal(err)
	}
	on := cycles[0]
	off, err := metis.Solve(inst, metis.Config{Theta: 6, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// Offline Metis is a heuristic: allow a small tolerance rather than
	// strict dominance over the online greedy.
	if off.Profit < 0.93*on.Profit {
		t.Fatalf("hindsight Metis %v well below online greedy %v", off.Profit, on.Profit)
	}
}

func TestExactSolversAgreeOnTinyInstance(t *testing.T) {
	// On a 6-request instance the MILP solves to proven optimality and
	// must dominate every heuristic.
	net := metis.SubB4()
	reqs, err := metis.GenerateWorkload(net, 6, 23)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := metis.NewInstance(net, metis.DefaultSlots, reqs, metis.DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := metis.OptSPM(inst, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !optRes.Proven {
		t.Skip("B&B did not prove optimality in budget")
	}
	metisRes, err := metis.Solve(inst, metis.Config{Theta: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	eco, err := metis.EcoFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]float64{"metis": metisRes.Profit, "ecoflow": eco.Profit} {
		if p > optRes.Profit+1e-6 {
			t.Fatalf("%s profit %v exceeds proven optimum %v", name, p, optRes.Profit)
		}
	}
	if math.Abs(optRes.Profit-optRes.Schedule.Profit()) > 1e-6 {
		t.Fatal("exact solver profit accounting mismatch")
	}
}

func TestExpensiveSingleLinkNetwork(t *testing.T) {
	// A two-DC network where the only link is so expensive that no
	// request is worth serving.
	dcs := []metis.DC{
		{ID: 0, Name: "a", Region: metis.RegionEurope},
		{ID: 1, Name: "b", Region: metis.RegionEurope},
	}
	links := []metis.Link{
		{From: 0, To: 1, Price: 1e6}, {From: 1, To: 0, Price: 1e6},
	}
	net, err := metis.NewNetwork("goldplated", dcs, links)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []metis.Request{{ID: 0, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.5, Value: 10}}
	inst, err := metis.NewInstance(net, 12, reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := metis.Solve(inst, metis.Config{Theta: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.NumAccepted() != 0 {
		t.Fatal("request accepted despite ruinous link price")
	}
}
