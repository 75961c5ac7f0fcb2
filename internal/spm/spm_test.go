package spm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"metis/internal/demand"
	"metis/internal/lp"
	"metis/internal/sched"
	"metis/internal/wan"
)

func subB4Instance(t *testing.T, reqs []demand.Request) *sched.Instance {
	t.Helper()
	inst, err := sched.NewInstance(wan.SubB4(), 12, reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func genRequests(t *testing.T, net *wan.Network, k int, seed int64) []demand.Request {
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

func TestRLRelaxationSingleRequest(t *testing.T) {
	// One request 0→1 rate 0.4: the optimal relaxed cost routes it on
	// the cheapest path, buying exactly 0.4 units on each of its links.
	reqs := []demand.Request{{ID: 0, Src: 0, Dst: 1, Start: 0, End: 5, Rate: 0.4, Value: 2}}
	inst := subB4Instance(t, reqs)
	rel, err := SolveRLRelaxation(inst, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantCost := 0.4 * inst.Path(0, 0).Price
	if math.Abs(rel.Cost-wantCost) > 1e-6 {
		t.Fatalf("relaxed cost = %v, want %v", rel.Cost, wantCost)
	}
	var sum float64
	for _, v := range rel.X[0] {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("x row sums to %v, want 1", sum)
	}
}

func TestRLRelaxationRowsSumToOne(t *testing.T) {
	inst := subB4Instance(t, genRequests(t, wan.SubB4(), 40, 3))
	rel, err := SolveRLRelaxation(inst, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rel.X {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("request %d: x row sums to %v", i, sum)
		}
	}
	// Relaxed cost is a lower bound on any integral schedule's cost:
	// compare against the trivial cheapest-path integral schedule.
	s := sched.NewSchedule(inst)
	for i := 0; i < inst.NumRequests(); i++ {
		if err := s.Assign(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if rel.Cost > s.Cost()+1e-6 {
		t.Fatalf("relaxed cost %v exceeds an integral schedule's cost %v", rel.Cost, s.Cost())
	}
}

func TestRLRelaxationLoadFitsFractionalBandwidth(t *testing.T) {
	inst := subB4Instance(t, genRequests(t, wan.SubB4(), 25, 7))
	rel, err := SolveRLRelaxation(inst, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fractional load on every (link, slot) must fit C[e].
	net := inst.Network()
	for e := 0; e < net.NumLinks(); e++ {
		for ts := 0; ts < inst.Slots(); ts++ {
			var load float64
			for i := 0; i < inst.NumRequests(); i++ {
				r := inst.Request(i)
				if !r.ActiveAt(ts) {
					continue
				}
				for j := 0; j < inst.NumPaths(i); j++ {
					uses := false
					for _, le := range inst.Path(i, j).Links {
						if le == e {
							uses = true
							break
						}
					}
					if uses {
						load += r.Rate * rel.X[i][j]
					}
				}
			}
			if load > rel.C[e]+1e-6 {
				t.Fatalf("link %d slot %d: load %v > C %v", e, ts, load, rel.C[e])
			}
		}
	}
}

func TestBLRelaxationRespectsCapacity(t *testing.T) {
	reqs := genRequests(t, wan.SubB4(), 30, 11)
	inst := subB4Instance(t, reqs)
	caps := inst.UniformCaps(1)
	rel, err := SolveBLRelaxation(inst, caps, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Revenue < 0 {
		t.Fatalf("negative revenue %v", rel.Revenue)
	}
	if rel.Revenue > demand.TotalValue(reqs)+1e-6 {
		t.Fatalf("revenue %v exceeds total value %v", rel.Revenue, demand.TotalValue(reqs))
	}
	for i, row := range rel.X {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if sum > 1+1e-6 {
			t.Fatalf("request %d accepted %v > 1", i, sum)
		}
	}
}

func TestBLRelaxationZeroCapacityAcceptsNothing(t *testing.T) {
	reqs := genRequests(t, wan.SubB4(), 10, 13)
	inst := subB4Instance(t, reqs)
	rel, err := SolveBLRelaxation(inst, inst.UniformCaps(0), lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Revenue > 1e-6 {
		t.Fatalf("revenue %v with zero capacity", rel.Revenue)
	}
}

func TestBLRelaxationAmpleCapacityAcceptsAll(t *testing.T) {
	reqs := genRequests(t, wan.SubB4(), 15, 17)
	inst := subB4Instance(t, reqs)
	rel, err := SolveBLRelaxation(inst, inst.UniformCaps(1000), lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel.Revenue-demand.TotalValue(reqs)) > 1e-5 {
		t.Fatalf("revenue %v, want total value %v", rel.Revenue, demand.TotalValue(reqs))
	}
}

func TestBLRelaxationCapsLengthChecked(t *testing.T) {
	inst := subB4Instance(t, genRequests(t, wan.SubB4(), 5, 19))
	if _, err := SolveBLRelaxation(inst, []int{1, 2}, lp.Options{}); err == nil {
		t.Fatal("want error for wrong caps length")
	}
}

func TestBLRelaxationNamesRefusedCapacityCell(t *testing.T) {
	inst := subB4Instance(t, genRequests(t, wan.SubB4(), 5, 19))
	caps := ExpandCaps(inst, make([]int, inst.Network().NumLinks()))
	r := inst.Request(0)
	e := inst.Path(0, 0).Links[0]
	caps[e][r.Start] = math.NaN()
	_, err := SolveBLRelaxationVar(inst, caps, lp.Options{})
	want := fmt.Sprintf("link %d slot %d", e, r.Start)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name %q", err, want)
	}
}

func TestExactSPMSmall(t *testing.T) {
	// Two requests on the same 0→1 window: one clearly profitable, one
	// clearly not. OPT(SPM) must accept exactly the profitable one
	// whenever serving both costs more than the extra value.
	cheap, err := wan.SubB4().CheapestPathPrice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []demand.Request{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.5, Value: 3 * cheap},
		{ID: 1, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.6, Value: 0.01 * cheap},
	}
	inst := subB4Instance(t, reqs)
	res, err := SolveExactSPM(inst, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven {
		t.Fatal("tiny instance should be solved to optimality")
	}
	accepted := res.Schedule.Accepted()
	if len(accepted) != 1 || accepted[0] != 0 {
		t.Fatalf("accepted %v, want [0]", accepted)
	}
	// Profit accounting consistency between MILP objective and schedule.
	if math.Abs(res.Objective-res.Schedule.Profit()) > 1e-5 {
		t.Fatalf("objective %v != schedule profit %v", res.Objective, res.Schedule.Profit())
	}
}

func TestExactRLServesEverything(t *testing.T) {
	reqs := genRequests(t, wan.SubB4(), 8, 23)
	inst := subB4Instance(t, reqs)
	res, err := SolveExactRL(inst, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.NumAccepted(); got != len(reqs) {
		t.Fatalf("OPT(RL-SPM) served %d of %d requests", got, len(reqs))
	}
	if math.Abs(res.Objective-res.Schedule.Cost()) > 1e-5 {
		t.Fatalf("objective %v != schedule cost %v", res.Objective, res.Schedule.Cost())
	}
}

func TestExactSPMBeatsAcceptAll(t *testing.T) {
	reqs := genRequests(t, wan.SubB4(), 10, 29)
	inst := subB4Instance(t, reqs)
	spmRes, err := SolveExactSPM(inst, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rlRes, err := SolveExactRL(inst, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if spmRes.Schedule.Profit() < rlRes.Schedule.Profit()-1e-6 {
		t.Fatalf("OPT(SPM) profit %v below OPT(RL-SPM) profit %v",
			spmRes.Schedule.Profit(), rlRes.Schedule.Profit())
	}
}

func TestExactSPMRelaxationIsUpperBound(t *testing.T) {
	reqs := genRequests(t, wan.SubB4(), 10, 31)
	inst := subB4Instance(t, reqs)
	res, err := SolveExactSPM(inst, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The RL relaxation with all requests served costs at most ... not
	// comparable; instead check profit <= total value (trivial sanity)
	// and >= 0 (declining everything is always available).
	if res.Schedule.Profit() < -1e-9 {
		t.Fatalf("OPT(SPM) profit %v negative", res.Schedule.Profit())
	}
	if res.Schedule.Profit() > demand.TotalValue(reqs) {
		t.Fatalf("profit exceeds total value")
	}
}

func TestExactBLRespectsCapacityAndDominates(t *testing.T) {
	reqs := genRequests(t, wan.SubB4(), 10, 37)
	inst := subB4Instance(t, reqs)
	caps := inst.UniformCaps(1)
	res, err := SolveExactBL(inst, caps, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven {
		t.Skip("tiny BL MILP not solved to optimality")
	}
	if err := res.Schedule.FeasibleUnder(caps); err != nil {
		t.Fatalf("OPT(BL-SPM) violates capacity: %v", err)
	}
	// Revenue matches the MILP objective and stays within the LP bound.
	if math.Abs(res.Objective-res.Schedule.Revenue()) > 1e-6 {
		t.Fatalf("objective %v != schedule revenue %v", res.Objective, res.Schedule.Revenue())
	}
	rel, err := SolveBLRelaxation(inst, caps, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > rel.Revenue+1e-6 {
		t.Fatalf("integral optimum %v above LP bound %v", res.Objective, rel.Revenue)
	}
}

func TestExactBLCapsValidated(t *testing.T) {
	inst := subB4Instance(t, genRequests(t, wan.SubB4(), 5, 39))
	if _, err := SolveExactBL(inst, []int{1}, ExactOptions{}); err == nil {
		t.Fatal("want error for wrong caps length")
	}
}
