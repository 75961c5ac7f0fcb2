package lp

import (
	"context"
	"math"
	"testing"
)

// chainProblem builds a K-stage min-cost flow-ish LP that takes enough
// simplex iterations to cross several 32-iteration cancellation polls.
func chainProblem(t *testing.T, k int) *Problem {
	t.Helper()
	d := newDraft(t, Maximize)
	vars := make([]int, k)
	for j := 0; j < k; j++ {
		vars[j] = d.variable(1+0.001*float64(j%7), 0, 2+float64(j%3), "x")
	}
	for i := 0; i+2 < k; i++ {
		r := d.row(LE, 3+float64(i%5), "cap")
		for s := 0; s < 3; s++ {
			d.term(r, vars[i+s], 1)
		}
	}
	return d.build()
}

func TestSolvePreCanceled(t *testing.T) {
	p := chainProblem(t, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := p.Solve(Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCanceled {
		t.Fatalf("status = %v, want canceled", sol.Status)
	}
	if sol.Iters != 0 {
		t.Fatalf("pre-canceled solve ran %d iterations", sol.Iters)
	}
}

func TestSolvePreCanceledKeepsWarmBasis(t *testing.T) {
	p := chainProblem(t, 60)
	warm := NewBasis()
	ref, err := p.Solve(Options{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Status != StatusOptimal || !warm.Valid() {
		t.Fatalf("capture solve: status=%v valid=%v", ref.Status, warm.Valid())
	}
	// The retry rewrites p's Solution: keep the objective it is held to.
	refObj := ref.Objective

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := p.Solve(Options{Ctx: ctx, Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCanceled {
		t.Fatalf("status = %v, want canceled", sol.Status)
	}
	if !warm.Valid() {
		t.Fatal("pre-canceled solve invalidated the warm basis")
	}

	// Retry with a live ctx: still warm, same objective.
	again, err := p.Solve(Options{Ctx: context.Background(), Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != StatusOptimal || !again.Warm {
		t.Fatalf("retry: status=%v warm=%v", again.Status, again.Warm)
	}
	if math.Abs(again.Objective-refObj) > 1e-9 {
		t.Fatalf("retry objective %v != reference %v", again.Objective, refObj)
	}
}

func TestSolveNilCtxUnchanged(t *testing.T) {
	// The nil-ctx path must match an explicit background ctx exactly:
	// same status, objective, iterations, and X.
	p1 := chainProblem(t, 40)
	p2 := chainProblem(t, 40)
	a, err := p1.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p2.Solve(Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != b.Status || a.Iters != b.Iters || a.Objective != b.Objective {
		t.Fatalf("nil-ctx vs background-ctx diverged: (%v,%d,%v) vs (%v,%d,%v)",
			a.Status, a.Iters, a.Objective, b.Status, b.Iters, b.Objective)
	}
	for j := range a.X {
		if a.X[j] != b.X[j] {
			t.Fatalf("X[%d] diverged: %v vs %v", j, a.X[j], b.X[j])
		}
	}
}
