package metis_test

// Property-based invariant tests: randomized wangen-style instances are
// solved by every algorithm of the stack and the outputs are verified
// from first principles by the internal/spm checker — valid paths,
// per-(link, slot) capacity respect, and profit recomputed from scratch.
// Every failure message carries the instance's (network, k, seed)
// triple, so a red run is reproducible with a one-line test.

import (
	"fmt"
	"math"
	"testing"

	"metis"
	"metis/internal/spm"
)

// randomCase describes one randomized instance of the property sweep.
type randomCase struct {
	netName string
	net     *metis.Network
	k       int
	seed    int64
}

func (c randomCase) String() string {
	return fmt.Sprintf("net=%s k=%d seed=%d", c.netName, c.k, c.seed)
}

// randomCases derives n deterministic pseudo-random scenarios from a
// base seed: network, request count and workload seed all vary.
func randomCases(n int, base int64) []randomCase {
	out := make([]randomCase, 0, n)
	state := uint64(base)*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < n; i++ {
		c := randomCase{seed: int64(next()%100000) + 1, k: 20 + int(next()%80)}
		if next()%2 == 0 {
			c.netName, c.net = "SUB-B4", metis.SubB4()
		} else {
			c.netName, c.net = "B4", metis.B4()
		}
		out = append(out, c)
	}
	return out
}

func buildRandomInstance(t *testing.T, c randomCase) *metis.Instance {
	t.Helper()
	reqs, err := metis.GenerateWorkload(c.net, c.k, c.seed)
	if err != nil {
		t.Fatalf("%v: workload: %v", c, err)
	}
	inst, err := metis.NewInstance(c.net, metis.DefaultSlots, reqs, metis.DefaultPathsPerRequest)
	if err != nil {
		t.Fatalf("%v: instance: %v", c, err)
	}
	return inst
}

// TestInvariantMAAServesEveryoneOnRealPaths: an MAA schedule must route
// every request of the instance — fully within its [Start, End] window —
// on a path that exists in the instance and forms a contiguous Src→Dst
// walk. CheckFeasible recomputes all of it from the raw instance.
func TestInvariantMAAServesEveryoneOnRealPaths(t *testing.T) {
	for _, c := range randomCases(12, 1) {
		res, err := metis.SolveMAA(buildRandomInstance(t, c), 2, c.seed)
		if err != nil {
			t.Fatalf("%v: maa: %v", c, err)
		}
		s := res.Schedule
		for i := 0; i < s.Instance().NumRequests(); i++ {
			if s.Choice(i) == metis.Declined {
				t.Fatalf("%v: MAA declined request %d (must serve everyone)", c, i)
			}
		}
		if err := spm.CheckFeasible(s, nil); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		// MAA's purchase must cover its own peak loads.
		if err := spm.CheckFeasible(s, res.Charged); err != nil {
			t.Fatalf("%v: purchase does not cover load: %v", c, err)
		}
	}
}

// TestInvariantTAARespectsCapacities: a TAA schedule must respect the
// given per-link capacity at every slot, with loads re-accumulated from
// scratch (not trusting the schedule's own accounting).
func TestInvariantTAARespectsCapacities(t *testing.T) {
	for _, c := range randomCases(12, 2) {
		inst := buildRandomInstance(t, c)
		caps := inst.UniformCaps(2 + int(c.seed%5))
		res, err := metis.SolveTAA(inst, caps)
		if err != nil {
			t.Fatalf("%v: taa: %v", c, err)
		}
		if err := spm.CheckFeasible(res.Schedule, caps); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
}

// TestInvariantMetisProfitRecomputes: the profit Metis reports must
// equal revenue − cost recomputed from scratch off the schedule, and the
// schedule itself must be feasible under its own bandwidth purchase.
func TestInvariantMetisProfitRecomputes(t *testing.T) {
	for _, c := range randomCases(8, 3) {
		inst := buildRandomInstance(t, c)
		res, err := metis.Solve(inst, metis.Config{Theta: 4, Seed: c.seed})
		if err != nil {
			t.Fatalf("%v: solve: %v", c, err)
		}
		if err := spm.CheckProfit(res.Schedule, res.Profit, 1e-6); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := spm.CheckFeasible(res.Schedule, res.Charged); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if math.Abs(res.Profit-(res.Revenue-res.Cost)) > 1e-9 {
			t.Fatalf("%v: result fields inconsistent: profit %v != %v − %v", c, res.Profit, res.Revenue, res.Cost)
		}
	}
}

// TestInvariantBaselinesFeasible extends the checker to the baselines:
// whatever MinCost and EcoFlow produce must pass the same first-
// principles feasibility and profit accounting.
func TestInvariantBaselinesFeasible(t *testing.T) {
	for _, c := range randomCases(6, 4) {
		inst := buildRandomInstance(t, c)
		mc, err := metis.MinCost(inst)
		if err != nil {
			t.Fatalf("%v: mincost: %v", c, err)
		}
		if err := spm.CheckFeasible(mc, nil); err != nil {
			t.Fatalf("%v: mincost: %v", c, err)
		}
		if err := spm.CheckProfit(mc, mc.Profit(), 1e-6); err != nil {
			t.Fatalf("%v: mincost: %v", c, err)
		}
		// EcoFlow is multipath (no single-path schedule to check), but
		// its profit arithmetic must still close.
		eco, err := metis.EcoFlow(inst)
		if err != nil {
			t.Fatalf("%v: ecoflow: %v", c, err)
		}
		if math.Abs(eco.Profit-(eco.Revenue-eco.Cost)) > 1e-9 {
			t.Fatalf("%v: ecoflow profit %v != revenue %v − cost %v", c, eco.Profit, eco.Revenue, eco.Cost)
		}
	}
}
