package core

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"metis/internal/fault"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/spm"
	"metis/internal/wan"
)

func TestSolveCtxPreCanceled(t *testing.T) {
	inst := instance(t, wan.SubB4(), 20, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveCtx(ctx, inst, Config{Theta: 4, Seed: 1})
	if res != nil {
		t.Fatalf("pre-canceled solve returned a result: %+v", res)
	}
	if !solvectx.Is(err) {
		t.Fatalf("pre-canceled solve returned %v, want a solvectx error", err)
	}
}

func TestSolveCtxNilAndBackgroundMatchSolve(t *testing.T) {
	inst := instance(t, wan.SubB4(), 40, 7)
	cfg := Config{Theta: 5, Seed: 7}
	plain, err := Solve(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := SolveCtx(context.Background(), inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Profit != viaCtx.Profit {
		t.Fatalf("profit differs: Solve %v, SolveCtx(Background) %v", plain.Profit, viaCtx.Profit)
	}
	if len(plain.Rounds) != len(viaCtx.Rounds) {
		t.Fatalf("rounds differ: Solve %d, SolveCtx(Background) %d", len(plain.Rounds), len(viaCtx.Rounds))
	}
	if viaCtx.Degraded || viaCtx.Cause != nil {
		t.Fatalf("unexpired ctx marked degraded (cause %v)", viaCtx.Cause)
	}
	for i := range plain.Schedule.Instance().Requests() {
		if plain.Schedule.Choice(i) != viaCtx.Schedule.Choice(i) {
			t.Fatalf("request %d: choice %d vs %d", i, plain.Schedule.Choice(i), viaCtx.Schedule.Choice(i))
		}
	}
}

// TestSolveCtxDegradesToIncumbent is the ISSUE's acceptance scenario: a
// context that expires mid-solve on a K=100 instance must yield a
// feasible schedule, flagged Degraded, whose profit is at least the
// first round's profit. The expiry is injected deterministically at the
// third round checkpoint via the fault registry.
func TestSolveCtxDegradesToIncumbent(t *testing.T) {
	inst := instance(t, wan.SubB4(), 100, 11)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fault.Enable("core.round", fault.Spec{Kind: fault.KindCancel, After: 3, Cancel: cancel})
	t.Cleanup(fault.Reset)

	res, err := SolveCtx(ctx, inst, Config{Theta: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("mid-solve cancellation did not mark the result degraded")
	}
	if !solvectx.Is(res.Cause) {
		t.Fatalf("degraded cause %v, want a solvectx error", res.Cause)
	}
	if got := len(res.Rounds); got != 2 {
		t.Fatalf("completed %d rounds before the injected round-3 expiry, want 2", got)
	}
	if res.Profit < res.Rounds[0].MAAProfit || res.Profit < res.Rounds[0].TAAProfit {
		t.Fatalf("degraded profit %v below first-round profits (maa %v, taa %v)",
			res.Profit, res.Rounds[0].MAAProfit, res.Rounds[0].TAAProfit)
	}
	if err := spm.CheckFeasible(res.Schedule, res.Charged); err != nil {
		t.Fatalf("degraded schedule infeasible: %v", err)
	}
	if err := spm.CheckProfit(res.Schedule, res.Profit, 1e-6); err != nil {
		t.Fatalf("degraded profit inconsistent: %v", err)
	}
}

// TestSolveCtxRealDeadline drives degradation with a genuine
// context.WithTimeout rather than an injected fault. The timing race is
// inherent, so both outcomes are legal; whichever happens, the result
// must satisfy the same invariants.
func TestSolveCtxRealDeadline(t *testing.T) {
	inst := instance(t, wan.SubB4(), 100, 13)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := SolveCtx(ctx, inst, Config{Theta: 8, Seed: 13})
	if err != nil {
		// The deadline beat even the greedy seed / first checkpoint.
		if !solvectx.Is(err) {
			t.Fatalf("deadline produced untyped error %v", err)
		}
		return
	}
	if res.Degraded && !solvectx.Is(res.Cause) {
		t.Fatalf("degraded cause %v, want a solvectx error", res.Cause)
	}
	if err := spm.CheckFeasible(res.Schedule, res.Charged); err != nil {
		t.Fatalf("schedule infeasible: %v", err)
	}
	if err := spm.CheckProfit(res.Schedule, res.Profit, 1e-6); err != nil {
		t.Fatalf("profit inconsistent: %v", err)
	}
}

// TestSolveCtxNaNProfitFault poisons every MAA-stage profit with NaN and
// checks the SP Updater never adopts it: NaN loses every "better than
// incumbent" comparison, so the result falls back to untainted
// schedules and the reported profit stays a real number.
func TestSolveCtxNaNProfitFault(t *testing.T) {
	inst := instance(t, wan.SubB4(), 60, 17)
	fault.Enable("core.profit", fault.Spec{Kind: fault.KindNaN, After: 1, Every: 1})
	t.Cleanup(fault.Reset)

	res, err := Solve(inst, Config{Theta: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Profit) || res.Profit < 0 {
		t.Fatalf("NaN-poisoned run leaked profit %v", res.Profit)
	}
	if err := spm.CheckProfit(res.Schedule, res.Profit, 1e-6); err != nil {
		t.Fatalf("profit inconsistent: %v", err)
	}
	if err := spm.CheckFeasible(res.Schedule, res.Charged); err != nil {
		t.Fatalf("schedule infeasible: %v", err)
	}
}

// TestSolveCtxAnytime holds SolveCtx to its anytime contract: a run
// canceled at round k's checkpoint returns what the SP Updater held
// after round k−1, which is exactly Config{Theta: k−1}'s result — its
// profit bit for bit, its schedule and its Charged — flagged Degraded,
// with k−1 rounds. Canceled at round 1 it returns the pruned greedy
// seed (or the empty schedule when the seed earns nothing).
func TestSolveCtxAnytime(t *testing.T) {
	const theta = 4
	t.Cleanup(fault.Reset)
	for _, net := range []*wan.Network{wan.B4(), wan.SubB4()} {
		inst := instance(t, net, 100, 1)
		full, err := Solve(inst, Config{Theta: theta, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Rounds) != theta {
			t.Fatalf("%s: θ = %d solve ran %d rounds; every checkpoint must be reached", net.Name(), theta, len(full.Rounds))
		}
		for k := 1; k <= theta; k++ {
			ctx, cancel := context.WithCancel(context.Background())
			fault.Enable("core.round", fault.Spec{Kind: fault.KindCancel, After: k, Cancel: cancel})
			got, err := SolveCtx(ctx, inst, Config{Theta: theta, Seed: 1})
			fault.Reset()
			cancel()
			if err != nil {
				t.Fatalf("%s k=%d: %v", net.Name(), k, err)
			}
			if !got.Degraded || !solvectx.Is(got.Cause) || len(got.Rounds) != k-1 {
				t.Fatalf("%s k=%d: degraded %v (cause %v) after %d rounds, want degraded after %d",
					net.Name(), k, got.Degraded, got.Cause, len(got.Rounds), k-1)
			}

			var want *sched.Schedule
			var wantProfit float64
			if k == 1 {
				var g greedyBuf
				var sp spScratch
				seed := greedyProfitCandidate(inst, &g)
				want = sched.NewSchedule(inst)
				if p := sp.prune(seed); p > 0 {
					want.CopyFrom(seed)
					wantProfit = p
				}
			} else {
				res, err := Solve(inst, Config{Theta: k - 1, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				want, wantProfit = res.Schedule, res.Profit
				if !slices.Equal(got.Charged, res.Charged) {
					t.Errorf("%s k=%d: charged %v, want θ = %d's %v", net.Name(), k, got.Charged, k-1, res.Charged)
				}
			}
			if math.Float64bits(got.Profit) != math.Float64bits(wantProfit) {
				t.Errorf("%s k=%d: profit %v, want %v", net.Name(), k, got.Profit, wantProfit)
			}
			for i := range inst.NumRequests() {
				if got.Schedule.Choice(i) != want.Choice(i) {
					t.Fatalf("%s k=%d: request %d on choice %d, want %d", net.Name(), k, i, got.Schedule.Choice(i), want.Choice(i))
				}
			}
			if k == 1 && !slices.Equal(got.Charged, want.ChargedBandwidth()) {
				t.Errorf("%s k=1: charged %v, want the seed's %v", net.Name(), got.Charged, want.ChargedBandwidth())
			}
		}
	}
}
