package mip

import (
	"math"
	"testing"

	"metis/internal/lp"
	"metis/internal/stats"
)

func buildKnapsack(t *testing.T, values, weights []float64, capacity float64) (*lp.Problem, []int) {
	t.Helper()
	p := lp.NewProblem(lp.Maximize)
	cols := make([]int, len(values))
	row, err := p.AddConstraint(lp.LE, capacity, "cap")
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		j, err := p.AppendColumn(values[i], 0, 1, []int{row}, weights[i:i+1], "x")
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = j
	}
	return p, cols
}

func bruteKnapsack(values, weights []float64, capacity float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var v, w float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				w += weights[i]
			}
		}
		if w <= capacity+1e-12 && v > best {
			best = v
		}
	}
	return best
}

func TestKnapsackExact(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2}
	weights := []float64{5, 6, 4, 5, 1}
	p, cols := buildKnapsack(t, values, weights, 10)
	sol, err := Solve(p, lp.Maximize, cols, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	want := bruteKnapsack(values, weights, 10)
	if math.Abs(sol.Objective-want) > 1e-6 {
		t.Fatalf("objective = %v, want %v", sol.Objective, want)
	}
	for _, j := range cols {
		v := sol.X[j]
		if math.Abs(v-math.Round(v)) > 1e-9 {
			t.Fatalf("x[%d] = %v not integral", j, v)
		}
	}
}

func TestKnapsackRandomAgainstBruteForce(t *testing.T) {
	rng := stats.NewRNG(5)
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(7)
		values := make([]float64, n)
		weights := make([]float64, n)
		var total float64
		for i := 0; i < n; i++ {
			values[i] = rng.Uniform(1, 20)
			weights[i] = rng.Uniform(1, 10)
			total += weights[i]
		}
		capacity := rng.Uniform(0.3, 0.7) * total
		p, cols := buildKnapsack(t, values, weights, capacity)
		sol, err := Solve(p, lp.Maximize, cols, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		want := bruteKnapsack(values, weights, capacity)
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: got %v, want %v", trial, sol.Objective, want)
		}
	}
}

func TestMinimizationIntegerProgram(t *testing.T) {
	// min 3x + 2y  s.t. x + y >= 3.5, x,y integer, 0 <= x,y <= 10.
	// LP optimum is y=3.5 (cost 7); ILP optimum y=4, x=0 → cost 8.
	p := lp.NewProblem(lp.Minimize)
	row, _ := p.AddConstraint(lp.GE, 3.5, "c")
	x, _ := p.AppendColumn(3, 0, 10, []int{row}, []float64{1}, "x")
	y, _ := p.AppendColumn(2, 0, 10, []int{row}, []float64{1}, "y")

	sol, err := Solve(p, lp.Minimize, []int{x, y}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-8) > 1e-6 {
		t.Fatalf("objective = %v, want 8", sol.Objective)
	}
}

func TestMixedIntegerKeepsContinuousFree(t *testing.T) {
	// max x + y, x integer <= 2.5 bound, y continuous, x + y <= 3.9.
	// Optimum: x = 2 (integer), y = 1.9.
	p := lp.NewProblem(lp.Maximize)
	row, _ := p.AddConstraint(lp.LE, 3.9, "c")
	x, _ := p.AppendColumn(1, 0, 2.5, []int{row}, []float64{1}, "x")
	p.AppendColumn(1, 0, math.Inf(1), []int{row}, []float64{1}, "y")

	sol, err := Solve(p, lp.Maximize, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-3.9) > 1e-6 {
		t.Fatalf("objective = %v, want 3.9", sol.Objective)
	}
	if math.Abs(sol.X[x]-math.Round(sol.X[x])) > 1e-9 {
		t.Fatalf("x = %v not integral", sol.X[x])
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6 with x integer: no integer point.
	p := lp.NewProblem(lp.Minimize)
	row, _ := p.AddConstraint(lp.GE, 0.4, "c")
	x, _ := p.AppendColumn(1, 0.4, 0.6, []int{row}, []float64{1}, "x")

	sol, err := Solve(p, lp.Minimize, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestLPInfeasibleRoot(t *testing.T) {
	p := lp.NewProblem(lp.Minimize)
	c1, _ := p.AddConstraint(lp.GE, 2, "c1")
	x, _ := p.AppendColumn(1, 0, 1, []int{c1}, []float64{1}, "x")

	sol, err := Solve(p, lp.Minimize, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestNodeLimitReturnsIncumbentOrLimit(t *testing.T) {
	rng := stats.NewRNG(77)
	n := 14
	values := make([]float64, n)
	weights := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		values[i] = rng.Uniform(1, 20)
		weights[i] = rng.Uniform(1, 10)
		total += weights[i]
	}
	p, cols := buildKnapsack(t, values, weights, total*0.5)
	sol, err := Solve(p, lp.Maximize, cols, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusFeasible && sol.Status != StatusLimit {
		t.Fatalf("status = %v, want feasible or limit", sol.Status)
	}
	if sol.Status == StatusFeasible {
		if sol.Gap < 0 {
			t.Fatalf("negative gap %v", sol.Gap)
		}
		if sol.Objective > sol.Bound+1e-6 {
			t.Fatalf("incumbent %v above bound %v in a max problem", sol.Objective, sol.Bound)
		}
	}
}

func TestBoundsRestoredAfterSolve(t *testing.T) {
	values := []float64{4, 5}
	weights := []float64{2, 3}
	p, cols := buildKnapsack(t, values, weights, 4)
	if _, err := Solve(p, lp.Maximize, cols, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, j := range cols {
		lo, hi := p.Bounds(j)
		if lo != 0 || hi != 1 {
			t.Fatalf("bounds of %d not restored: [%v, %v]", j, lo, hi)
		}
	}
}

func TestInvalidIntegerColumn(t *testing.T) {
	p := lp.NewProblem(lp.Minimize)
	if _, err := Solve(p, lp.Minimize, []int{3}, Options{}); err == nil {
		t.Fatal("want error for out-of-range integer column")
	}
}

func TestStatusStringMIP(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{StatusOptimal, "optimal"},
		{StatusFeasible, "feasible"},
		{StatusInfeasible, "infeasible"},
		{StatusLimit, "limit"},
		{StatusUnbounded, "unbounded"},
		{Status(9), "status(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

// TestWarmColdSameIncumbentAndBound: warm-started branch & bound (the
// default) must reach the same incumbent objective and prove the same
// bound as a fully cold search. Node counts are not compared: a warm
// relaxation may sit on a different optimal vertex, legitimately
// changing the branching order.
func TestWarmColdSameIncumbentAndBound(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		var total float64
		for i := 0; i < n; i++ {
			values[i] = rng.Uniform(1, 20)
			weights[i] = rng.Uniform(1, 10)
			total += weights[i]
		}
		capacity := rng.Uniform(0.3, 0.7) * total

		pw, colsW := buildKnapsack(t, values, weights, capacity)
		warm, err := Solve(pw, lp.Maximize, colsW, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pc, colsC := buildKnapsack(t, values, weights, capacity)
		cold, err := Solve(pc, lp.Maximize, colsC, Options{coldLP: true})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v != cold %v", trial, warm.Status, cold.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
			t.Fatalf("trial %d: warm incumbent %v != cold %v", trial, warm.Objective, cold.Objective)
		}
		if math.Abs(warm.Bound-cold.Bound) > 1e-9 {
			t.Fatalf("trial %d: warm bound %v != cold %v", trial, warm.Bound, cold.Bound)
		}
		want := bruteKnapsack(values, weights, capacity)
		if math.Abs(warm.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: warm objective %v != brute force %v", trial, warm.Objective, want)
		}
	}
}

// numericLP is a relaxation the simplex cannot finish: a enters at a
// zero level on the "tiny" row, and b's only pivot there (2e-9 after
// a's 1e-3 scales it) makes a basis that does not factor. The pivot is
// rejected, b is held out, and no improving column is left. The 126
// empty rows put the basis on the LU path.
func numericLP(t *testing.T) (*lp.Problem, int) {
	t.Helper()
	p := lp.NewProblem(lp.Maximize)
	tiny, _ := p.AddConstraint(lp.LE, 0, "tiny")
	cap, _ := p.AddConstraint(lp.LE, 1, "cap")
	for range 126 {
		_, _ = p.AddConstraint(lp.LE, 1, "empty")
	}
	a, _ := p.AppendColumn(2, 0, math.Inf(1), []int{tiny}, []float64{1e-3}, "a")
	p.AppendColumn(1, 0, math.Inf(1), []int{tiny, cap}, []float64{2e-12, 1}, "b")
	sol, err := p.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusNumeric {
		t.Fatalf("relaxation %v, want %v: the case under test was not reached", sol.Status, lp.StatusNumeric)
	}
	return p, a
}

// An unfinished root relaxation proves no bound: it is a limit, and a
// warm start is the incumbent of last resort, as at the iteration cap.
func TestNumericRootIsLimit(t *testing.T) {
	p, a := numericLP(t)
	sol, err := Solve(p, lp.Maximize, []int{a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit || sol.X != nil {
		t.Fatalf("status %v (X %v), want %v without X", sol.Status, sol.X, StatusLimit)
	}
	sol, err = Solve(p, lp.Maximize, []int{a}, Options{WarmStart: []float64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusFeasible || sol.Objective != 0 || !math.IsInf(sol.Gap, 1) {
		t.Fatalf("status %v objective %v gap %v, want the warm start as a feasible incumbent with an unbounded gap", sol.Status, sol.Objective, sol.Gap)
	}
}
