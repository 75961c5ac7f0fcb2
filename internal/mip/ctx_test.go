package mip

import (
	"context"
	"math"
	"testing"

	"metis/internal/fault"
	"metis/internal/lp"
	"metis/internal/stats"
)

func TestCtxPreCanceledNoWarmStart(t *testing.T) {
	p, cols := buildKnapsack(t, []float64{10, 13, 7}, []float64{5, 6, 4}, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := Solve(p, lp.Maximize, cols, Options{LP: lp.Options{Ctx: ctx}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit || !sol.Canceled {
		t.Fatalf("status=%v canceled=%v, want limit/canceled", sol.Status, sol.Canceled)
	}
}

func TestCtxPreCanceledReturnsWarmStartIncumbent(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2}
	weights := []float64{5, 6, 4, 5, 1}
	p, cols := buildKnapsack(t, values, weights, 10)
	// Feasible warm start: items 0 and 2 (weight 9 <= 10, value 17).
	warm := []float64{1, 0, 1, 0, 0}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := Solve(p, lp.Maximize, cols, Options{LP: lp.Options{Ctx: ctx}, WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusFeasible || !sol.Canceled {
		t.Fatalf("status=%v canceled=%v, want feasible/canceled", sol.Status, sol.Canceled)
	}
	if math.Abs(sol.Objective-17) > 1e-9 {
		t.Fatalf("objective = %v, want warm-start value 17", sol.Objective)
	}
	if !math.IsInf(sol.Gap, 1) || !math.IsInf(sol.Bound, 1) {
		t.Fatalf("gap=%v bound=%v, want +Inf (no proven bound)", sol.Gap, sol.Bound)
	}
}

func TestCtxCancelMidSearchKeepsIncumbent(t *testing.T) {
	// Deterministic mid-search cancellation: a fault at the lp.solve
	// site cancels the ctx on the 4th node relaxation. The search must
	// stop with Canceled set and still honor the anytime contract — the
	// warm-start incumbent (or better) comes back feasible.
	defer fault.Reset()
	rng := stats.NewRNG(11)
	n := 14
	values := make([]float64, n)
	weights := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		values[i] = rng.Uniform(1, 20)
		weights[i] = rng.Uniform(1, 10)
		total += weights[i]
	}
	capacity := 0.5 * total
	p, cols := buildKnapsack(t, values, weights, capacity)

	// Greedy warm start: take items by value density until full.
	warm := make([]float64, n)
	warmVal, load := 0.0, 0.0
	for i := 0; i < n; i++ {
		if load+weights[i] <= capacity {
			warm[i], warmVal, load = 1, warmVal+values[i], load+weights[i]
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fault.Reset()
	fault.Enable("lp.solve", fault.Spec{Kind: fault.KindCancel, After: 4, Cancel: cancel})

	sol, err := Solve(p, lp.Maximize, cols, Options{LP: lp.Options{Ctx: ctx}, WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Canceled {
		t.Fatalf("canceled flag not set: %+v", sol)
	}
	if sol.Status != StatusFeasible {
		t.Fatalf("status = %v, want feasible (warm incumbent)", sol.Status)
	}
	if sol.Objective < warmVal-1e-9 {
		t.Fatalf("objective %v regressed below warm start %v", sol.Objective, warmVal)
	}
	var w float64
	for i, x := range sol.X {
		if math.Abs(x-math.Round(x)) > 1e-6 {
			t.Fatalf("x[%d]=%v not integral", i, x)
		}
		w += weights[i] * math.Round(x)
	}
	if w > capacity+1e-9 {
		t.Fatalf("incumbent weight %v exceeds capacity %v", w, capacity)
	}
}
