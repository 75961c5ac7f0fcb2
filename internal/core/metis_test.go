package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"metis/internal/demand"
	"metis/internal/obs"
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

func TestSolveProfitNonNegative(t *testing.T) {
	inst := instance(t, wan.SubB4(), 60, 1)
	res, err := Solve(inst, Config{Theta: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Metis can always fall back to the empty schedule, so its profit
	// is never negative.
	if res.Profit < 0 {
		t.Fatalf("profit %v negative", res.Profit)
	}
	if math.Abs(res.Profit-(res.Revenue-res.Cost)) > 1e-9 {
		t.Fatalf("profit %v != revenue %v − cost %v", res.Profit, res.Revenue, res.Cost)
	}
}

func TestScheduleConsistentWithResult(t *testing.T) {
	inst := instance(t, wan.SubB4(), 40, 2)
	res, err := Solve(inst, Config{Theta: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Schedule.Profit()-res.Profit) > 1e-9 {
		t.Fatalf("schedule profit %v != result profit %v", res.Schedule.Profit(), res.Profit)
	}
	if err := res.Schedule.FeasibleUnder(res.Charged); err != nil {
		t.Fatalf("best schedule infeasible under its own purchase: %v", err)
	}
}

func TestBeatsAcceptEverything(t *testing.T) {
	// The core claim of the paper: selecting requests beats the
	// accept-everything mode. Metis's profit must be at least the
	// profit of its own first-round MAA schedule, which serves all.
	inst := instance(t, wan.SubB4(), 80, 3)
	res, err := Solve(inst, Config{Theta: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds recorded")
	}
	if res.Profit < res.Rounds[0].MAAProfit-1e-9 {
		t.Fatalf("profit %v below first-round accept-all profit %v", res.Profit, res.Rounds[0].MAAProfit)
	}
}

func TestAtMostOptimal(t *testing.T) {
	inst := instance(t, wan.SubB4(), 12, 4)
	res, err := Solve(inst, Config{Theta: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := spm.SolveExactSPM(inst, spm.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Proven {
		t.Skip("exact solver hit a limit on this instance")
	}
	if res.Profit > opt.Objective+1e-6 {
		t.Fatalf("Metis profit %v exceeds proven optimum %v", res.Profit, opt.Objective)
	}
}

func TestRoundsRecorded(t *testing.T) {
	inst := instance(t, wan.SubB4(), 50, 5)
	res, err := Solve(inst, Config{Theta: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 || len(res.Rounds) > 4 {
		t.Fatalf("recorded %d rounds, want 1..4", len(res.Rounds))
	}
	for i, r := range res.Rounds {
		if r.Round != i+1 {
			t.Fatalf("round %d numbered %d", i, r.Round)
		}
		if r.TAAAccepted > r.Accepted {
			t.Fatalf("round %d: TAA accepted %d of %d", i, r.TAAAccepted, r.Accepted)
		}
	}
	// The accepted set never grows across rounds (convergence argument).
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].Accepted > res.Rounds[i-1].TAAAccepted {
			t.Fatalf("accepted set grew between rounds %d and %d", i, i+1)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	inst := instance(t, wan.SubB4(), 30, 6)
	a, err := Solve(inst, Config{Theta: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(inst, Config{Theta: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Profit-b.Profit) > 1e-12 {
		t.Fatalf("profits differ across identical seeds: %v vs %v", a.Profit, b.Profit)
	}
}

func TestEmptyInstanceRejected(t *testing.T) {
	inst, err := sched.NewInstance(wan.SubB4(), 12, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(inst, Config{}); !errors.Is(err, ErrNoRequests) {
		t.Fatalf("err = %v, want ErrNoRequests", err)
	}
}

func TestThetaOneStillWorks(t *testing.T) {
	inst := instance(t, wan.SubB4(), 25, 7)
	res, err := Solve(inst, Config{Theta: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("θ=1 ran %d rounds", len(res.Rounds))
	}
	if res.Profit < 0 {
		t.Fatalf("profit %v negative", res.Profit)
	}
}

func TestMoreThetaNeverHurtsMuch(t *testing.T) {
	// SP Updater keeps the best schedule, so profit is monotone in θ
	// for a fixed seed (the first rounds are identical).
	inst := instance(t, wan.SubB4(), 40, 8)
	small, err := Solve(inst, Config{Theta: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Solve(inst, Config{Theta: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if large.Profit < small.Profit-1e-9 {
		t.Fatalf("θ=6 profit %v below θ=1 profit %v", large.Profit, small.Profit)
	}
}

// spanRecorder keeps every record a traced solve emits.
type spanRecorder struct {
	mu   sync.Mutex
	recs []obs.Record
}

func (r *spanRecorder) Emit(rec obs.Record) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// TestFirstBLSolveSeeded: on a K=1000 B4 instance, round 1's BL-SPM
// solve starts from MAA's routing and finishes as a warm hit, later
// rounds warm-start from the basis it left, and no BL-SPM solve of the
// run runs cold. MAA's RL-SPM solves carry no warm handle ("off").
func TestFirstBLSolveSeeded(t *testing.T) {
	inst := instance(t, wan.B4(), 1000, 1)
	rec := &spanRecorder{}
	if _, err := Solve(inst, Config{Theta: 3, Seed: 1, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	var starts []any
	for _, r := range rec.recs {
		switch r.Name {
		case "metis.round":
			starts = append(starts, r.Fields["bl_start"])
		case "lp.solve":
			if w := r.Fields["warm"]; w != "off" && w != "hit" {
				t.Errorf("LP solve with warm outcome %v, want every BL-SPM solve a hit", w)
			}
		}
	}
	if len(starts) == 0 || starts[0] != "seeded" {
		t.Fatalf("BL starts by round %v, want round 1 seeded", starts)
	}
	for i, s := range starts[1:] {
		if s != "warm" {
			t.Errorf("round %d BL start %v, want warm", i+2, s)
		}
	}
}
