package opt

import (
	"context"
	"testing"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/wan"
)

func instance(t *testing.T, k int, seed int64) *sched.Instance {
	t.Helper()
	g, err := demand.NewGenerator(wan.SubB4(), demand.DefaultGeneratorConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.GenerateN(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(wan.SubB4(), demand.DefaultSlots, reqs, sched.DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestOrderingSPMvsRLSPMvsMetis(t *testing.T) {
	// The paper's Fig. 3a ordering on any instance where all solvers
	// finish: OPT(SPM) >= Metis and OPT(SPM) >= OPT(RL-SPM).
	inst := instance(t, 12, 1)
	optSPM, err := SPM(nil, inst, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !optSPM.Proven {
		t.Skip("OPT(SPM) hit a limit")
	}
	optRL, err := RLSPM(nil, inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	metis, err := core.Solve(inst, core.Config{Theta: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if metis.Profit > optSPM.Profit+1e-6 {
		t.Fatalf("Metis %v beats proven OPT(SPM) %v", metis.Profit, optSPM.Profit)
	}
	if optRL.Proven && optRL.Profit > optSPM.Profit+1e-6 {
		t.Fatalf("OPT(RL-SPM) %v beats OPT(SPM) %v", optRL.Profit, optSPM.Profit)
	}
}

func TestRLSPMAcceptsAll(t *testing.T) {
	inst := instance(t, 10, 2)
	res, err := RLSPM(nil, inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 10 {
		t.Fatalf("OPT(RL-SPM) accepted %d of 10", res.Accepted)
	}
	if res.Revenue != demand.TotalValue(inst.Requests()) {
		t.Fatalf("revenue %v, want total value", res.Revenue)
	}
}

// TestBudgetedStillReturns: both stops keep the anytime contract. A
// ctx deadline returns an incumbent marked Canceled; a node budget
// returns one too, and two budgeted solves agree on every count, since
// the budget is work, not time.
func TestBudgetedStillReturns(t *testing.T) {
	inst := instance(t, 40, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	timed, err := SPM(ctx, inst, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if timed.Schedule == nil {
		t.Fatal("no incumbent under a ctx deadline")
	}
	if timed.Profit < -1e-9 {
		t.Fatalf("profit %v negative (empty schedule is always available)", timed.Profit)
	}

	const budget = 25
	a, err := SPM(nil, inst, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SPM(nil, inst, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule == nil || a.Canceled || a.Proven || a.Nodes != budget {
		t.Fatalf("node-budgeted solve: schedule=%v canceled=%v proven=%v nodes=%d, want an unproven incumbent after %d nodes",
			a.Schedule != nil, a.Canceled, a.Proven, a.Nodes, budget)
	}
	if a.Profit != b.Profit || a.Accepted != b.Accepted || a.Nodes != b.Nodes || a.Gap != b.Gap {
		t.Fatalf("node-budgeted solves differ: profit %v/%v accepted %d/%d nodes %d/%d gap %v/%v",
			a.Profit, b.Profit, a.Accepted, b.Accepted, a.Nodes, b.Nodes, a.Gap, b.Gap)
	}
}
