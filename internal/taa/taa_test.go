package taa

import (
	"testing"

	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/spm"
	"metis/internal/wan"
)

func instance(t *testing.T, net *wan.Network, k int, seed int64) *sched.Instance {
	t.Helper()
	g, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.GenerateN(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(net, demand.DefaultSlots, reqs, sched.DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSolveFeasibleUnderCaps(t *testing.T) {
	inst := instance(t, wan.B4(), 120, 1)
	caps := inst.UniformCaps(2)
	res, err := Solve(inst, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.FeasibleUnder(caps); err != nil {
		t.Fatalf("TAA schedule violates capacity: %v", err)
	}
}

func TestRevenueBelowRelaxationBound(t *testing.T) {
	inst := instance(t, wan.SubB4(), 60, 2)
	caps := inst.UniformCaps(3)
	res, err := Solve(inst, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Revenue > res.Relaxed.Revenue+1e-6 {
		t.Fatalf("revenue %v exceeds LP upper bound %v", res.Revenue, res.Relaxed.Revenue)
	}
	if res.Revenue < 0 {
		t.Fatalf("negative revenue %v", res.Revenue)
	}
}

func TestAmpleCapacityAcceptsEverything(t *testing.T) {
	inst := instance(t, wan.SubB4(), 40, 3)
	caps := inst.UniformCaps(1000)
	res, err := Solve(inst, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.NumAccepted(); got != 40 {
		t.Fatalf("accepted %d of 40 under ample capacity", got)
	}
}

func TestZeroCapacityAcceptsNothing(t *testing.T) {
	inst := instance(t, wan.SubB4(), 20, 4)
	res, err := Solve(inst, inst.UniformCaps(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.NumAccepted(); got != 0 {
		t.Fatalf("accepted %d with zero capacity", got)
	}
	if res.Mu != 0 {
		t.Fatalf("µ = %v, want 0 when the estimator is skipped", res.Mu)
	}
}

func TestTightCapacityDeclinesSome(t *testing.T) {
	inst := instance(t, wan.SubB4(), 150, 5)
	caps := inst.UniformCaps(1)
	res, err := Solve(inst, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	accepted := res.Schedule.NumAccepted()
	if accepted == 0 {
		t.Fatal("tight capacity should still accept some requests")
	}
	if accepted == 150 {
		t.Fatal("150 requests cannot all fit in 1-unit links")
	}
	if err := res.Schedule.FeasibleUnder(caps); err != nil {
		t.Fatal(err)
	}
}

func TestMuWithinUnitInterval(t *testing.T) {
	inst := instance(t, wan.B4(), 50, 6)
	res, err := Solve(inst, inst.UniformCaps(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mu <= 0 || res.Mu >= 1 {
		t.Fatalf("µ = %v outside (0, 1)", res.Mu)
	}
	if res.RevenueTarget < 0 {
		t.Fatalf("revenue target %v negative", res.RevenueTarget)
	}
}

func TestEmptyInstance(t *testing.T) {
	inst, err := sched.NewInstance(wan.SubB4(), 12, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(inst, inst.UniformCaps(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.NumAccepted() != 0 {
		t.Fatal("empty instance must accept nothing")
	}
}

func TestCapsValidation(t *testing.T) {
	inst := instance(t, wan.SubB4(), 5, 7)
	if _, err := Solve(inst, []int{1, 2}, Options{}); err == nil {
		t.Error("want error for wrong caps length")
	}
	caps := inst.UniformCaps(1)
	caps[0] = -1
	if _, err := Solve(inst, caps, Options{}); err == nil {
		t.Error("want error for negative capacity")
	}
}

func TestDeterministic(t *testing.T) {
	inst := instance(t, wan.SubB4(), 40, 8)
	caps := inst.UniformCaps(2)
	a, err := Solve(inst, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(inst, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inst.NumRequests(); i++ {
		if a.Schedule.Choice(i) != b.Schedule.Choice(i) {
			t.Fatalf("request %d: TAA not deterministic", i)
		}
	}
}

// TestPrefersHighValue checks the economic sanity of the tree walk:
// with capacity for only one of two identical-shape requests, the
// higher-value one should win.
func TestPrefersHighValue(t *testing.T) {
	net := wan.SubB4()
	reqs := []demand.Request{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.8, Value: 1},
		{ID: 1, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.8, Value: 10},
	}
	inst, err := sched.NewInstance(net, 12, reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	caps := inst.UniformCaps(1)
	res, err := Solve(inst, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Choice(1) == sched.Declined {
		t.Fatal("high-value request declined")
	}
	if res.Schedule.Choice(0) != sched.Declined {
		t.Fatal("both requests accepted despite 1-unit capacity on a shared mandatory link")
	}
}

// TestTAAVsExactOptimum compares TAA against the proven BL-SPM optimum
// on tiny instances: never above it, and within a reasonable factor.
func TestTAAVsExactOptimum(t *testing.T) {
	for _, seed := range []int64{41, 43, 47} {
		inst := instance(t, wan.SubB4(), 12, seed)
		caps := inst.UniformCaps(1)
		opt, err := spm.SolveExactBL(inst, caps, spm.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Proven {
			continue
		}
		res, err := Solve(inst, caps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Revenue > opt.Objective+1e-6 {
			t.Fatalf("seed %d: TAA revenue %v above proven optimum %v", seed, res.Revenue, opt.Objective)
		}
		if res.Revenue < 0.7*opt.Objective {
			t.Fatalf("seed %d: TAA revenue %v below 70%% of optimum %v", seed, res.Revenue, opt.Objective)
		}
	}
}

// TestDeclinedFitsNoPath pins what TAA's passes leave behind: each
// offers every request each of its fitting candidate paths, and loads
// only grow, so in the returned schedule no declined request fits any
// of its paths under the capacities minus the final loads — on the
// estimator path (Solve and SolveVar) and on the µ-floor greedy path.
func TestDeclinedFitsNoPath(t *testing.T) {
	b4 := instance(t, wan.B4(), 200, 31)
	sub := instance(t, wan.SubB4(), 150, 32)
	perSlot := func(inst *sched.Instance, seed int) [][]float64 {
		caps := make([][]float64, inst.Network().NumLinks())
		for e := range caps {
			caps[e] = make([]float64, inst.Slots())
			for tt := range caps[e] {
				caps[e][tt] = float64(1 + (e*7+tt*3+seed)%5)
			}
		}
		return caps
	}
	// A tenth of a unit everywhere, a fifth of the largest rate, leaves
	// inequality (6) no µ above the floor.
	tiny := func(inst *sched.Instance) [][]float64 {
		caps := perSlot(inst, 0)
		for e := range caps {
			for tt := range caps[e] {
				caps[e][tt] = 0.1
			}
		}
		return caps
	}
	cases := []struct {
		name    string
		inst    *sched.Instance
		caps    [][]float64
		perSlot bool
		muFloor bool
	}{
		{"B4/Solve", b4, spm.ExpandCaps(b4, b4.UniformCaps(4)), false, false},
		{"SUB-B4/Solve", sub, spm.ExpandCaps(sub, sub.UniformCaps(2)), false, false},
		{"B4/SolveVar", b4, perSlot(b4, 1), true, false},
		{"SUB-B4/SolveVar", sub, perSlot(sub, 2), true, false},
		{"B4/mu-floor", b4, tiny(b4), true, true},
		{"SUB-B4/mu-floor", sub, tiny(sub), true, true},
	}
	for _, c := range cases {
		floors := cMuFloor.Value()
		var res *Result
		var err error
		if c.perSlot {
			res, err = SolveVar(c.inst, c.caps, Options{})
		} else {
			caps := make([]int, len(c.caps))
			for e := range caps {
				caps[e] = int(c.caps[e][0])
			}
			res, err = Solve(c.inst, caps, Options{})
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if took := cMuFloor.Value() > floors; took != c.muFloor {
			t.Fatalf("%s: µ-floor path taken %v, want %v", c.name, took, c.muFloor)
		}
		s := res.Schedule
		loads := s.Loads()
		declined := 0
		for i := 0; i < c.inst.NumRequests(); i++ {
			if s.Choice(i) != sched.Declined {
				continue
			}
			declined++
			r := c.inst.Request(i)
			for j := 0; j < c.inst.NumPaths(i); j++ {
				fits := true
				for _, e := range c.inst.Path(i, j).Links {
					for tt := r.Start; tt <= r.End; tt++ {
						fits = fits && loads[e][tt]+r.Rate <= c.caps[e][tt]+1e-9
					}
				}
				if fits {
					t.Fatalf("%s: declined request %d fits its path %d", c.name, i, j)
				}
			}
		}
		if declined == 0 {
			t.Fatalf("%s: nothing declined, the property is vacuous", c.name)
		}
	}
}
