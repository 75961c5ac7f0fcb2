package lp

import (
	"math"
	"testing"

	"metis/internal/stats"
)

func mustVar(t *testing.T, p *Problem, obj, lo, hi float64, name string) int {
	t.Helper()
	j, err := p.AddVariable(obj, lo, hi, name)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func mustCon(t *testing.T, p *Problem, rel Rel, rhs float64, name string) int {
	t.Helper()
	i, err := p.AddConstraint(rel, rhs, name)
	if err != nil {
		t.Fatal(err)
	}
	return i
}

func mustTerm(t *testing.T, p *Problem, row, col int, v float64) {
	t.Helper()
	if err := p.AddTerm(row, col, v); err != nil {
		t.Fatal(err)
	}
}

func solveOptimal(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestMaximizeTwoVarClassic(t *testing.T) {
	// max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Classic optimum: x=2, y=6, obj=36.
	p := NewProblem(Maximize)
	x := mustVar(t, p, 3, 0, math.Inf(1), "x")
	y := mustVar(t, p, 5, 0, math.Inf(1), "y")
	c1 := mustCon(t, p, LE, 4, "c1")
	c2 := mustCon(t, p, LE, 12, "c2")
	c3 := mustCon(t, p, LE, 18, "c3")
	mustTerm(t, p, c1, x, 1)
	mustTerm(t, p, c2, y, 2)
	mustTerm(t, p, c3, x, 3)
	mustTerm(t, p, c3, y, 2)

	sol := solveOptimal(t, p)
	if math.Abs(sol.Objective-36) > 1e-6 {
		t.Fatalf("objective = %v, want 36", sol.Objective)
	}
	if math.Abs(sol.X[x]-2) > 1e-6 || math.Abs(sol.X[y]-6) > 1e-6 {
		t.Fatalf("x = %v, y = %v; want 2, 6", sol.X[x], sol.X[y])
	}
}

func TestMinimizeWithGEConstraints(t *testing.T) {
	// min 2x + 3y  s.t. x + y >= 4, x + 2y >= 6. Optimum x=2, y=2, obj=10.
	p := NewProblem(Minimize)
	x := mustVar(t, p, 2, 0, math.Inf(1), "x")
	y := mustVar(t, p, 3, 0, math.Inf(1), "y")
	c1 := mustCon(t, p, GE, 4, "c1")
	c2 := mustCon(t, p, GE, 6, "c2")
	mustTerm(t, p, c1, x, 1)
	mustTerm(t, p, c1, y, 1)
	mustTerm(t, p, c2, x, 1)
	mustTerm(t, p, c2, y, 2)

	sol := solveOptimal(t, p)
	if math.Abs(sol.Objective-10) > 1e-6 {
		t.Fatalf("objective = %v, want 10", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y  s.t. x + y == 3, y <= 1 → x=2, y=1, obj=4.
	p := NewProblem(Minimize)
	x := mustVar(t, p, 1, 0, math.Inf(1), "x")
	y := mustVar(t, p, 2, 0, 1, "y")
	c1 := mustCon(t, p, EQ, 3, "c1")
	mustTerm(t, p, c1, x, 1)
	mustTerm(t, p, c1, y, 1)

	sol := solveOptimal(t, p)
	// y more expensive than x, so y goes to 0: x=3, obj=3.
	if math.Abs(sol.Objective-3) > 1e-6 {
		t.Fatalf("objective = %v, want 3", sol.Objective)
	}
	if math.Abs(sol.X[x]-3) > 1e-6 {
		t.Fatalf("x = %v, want 3", sol.X[x])
	}
}

func TestUpperBoundsRespected(t *testing.T) {
	// max x + y with x <= 1.5 (bound), x + y <= 2 → obj = 2,
	// any split with x <= 1.5. Then tighten: max 2x + y → x=1.5, y=0.5.
	p := NewProblem(Maximize)
	x := mustVar(t, p, 2, 0, 1.5, "x")
	y := mustVar(t, p, 1, 0, math.Inf(1), "y")
	c := mustCon(t, p, LE, 2, "cap")
	mustTerm(t, p, c, x, 1)
	mustTerm(t, p, c, y, 1)

	sol := solveOptimal(t, p)
	if math.Abs(sol.Objective-3.5) > 1e-6 {
		t.Fatalf("objective = %v, want 3.5", sol.Objective)
	}
	if sol.X[x] > 1.5+1e-9 {
		t.Fatalf("x = %v violates bound 1.5", sol.X[x])
	}
}

func TestNonzeroLowerBounds(t *testing.T) {
	// min x + y  s.t. x + y >= 3, x >= 1 (bound), y >= 0.5 (bound).
	p := NewProblem(Minimize)
	x := mustVar(t, p, 1, 1, math.Inf(1), "x")
	y := mustVar(t, p, 1, 0.5, math.Inf(1), "y")
	c := mustCon(t, p, GE, 3, "c")
	mustTerm(t, p, c, x, 1)
	mustTerm(t, p, c, y, 1)

	sol := solveOptimal(t, p)
	if math.Abs(sol.Objective-3) > 1e-6 {
		t.Fatalf("objective = %v, want 3", sol.Objective)
	}
	if sol.X[x] < 1-1e-9 || sol.X[y] < 0.5-1e-9 {
		t.Fatalf("bounds violated: x=%v y=%v", sol.X[x], sol.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2 simultaneously.
	p := NewProblem(Minimize)
	x := mustVar(t, p, 1, 0, math.Inf(1), "x")
	c1 := mustCon(t, p, LE, 1, "c1")
	c2 := mustCon(t, p, GE, 2, "c2")
	mustTerm(t, p, c1, x, 1)
	mustTerm(t, p, c2, x, 1)

	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// max x with only x >= 0.
	p := NewProblem(Maximize)
	x := mustVar(t, p, 1, 0, math.Inf(1), "x")
	c := mustCon(t, p, GE, 0, "c")
	mustTerm(t, p, c, x, 1)

	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// min x  s.t. -x <= -2  (i.e. x >= 2) → x = 2.
	p := NewProblem(Minimize)
	x := mustVar(t, p, 1, 0, math.Inf(1), "x")
	c := mustCon(t, p, LE, -2, "c")
	mustTerm(t, p, c, x, -1)

	sol := solveOptimal(t, p)
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestAccumulatingTerms(t *testing.T) {
	// Adding 1 then 2 on the same cell gives coefficient 3:
	// min x s.t. 3x >= 6 → x = 2.
	p := NewProblem(Minimize)
	x := mustVar(t, p, 1, 0, math.Inf(1), "x")
	c := mustCon(t, p, GE, 6, "c")
	mustTerm(t, p, c, x, 1)
	mustTerm(t, p, c, x, 2)

	sol := solveOptimal(t, p)
	if math.Abs(sol.X[x]-2) > 1e-6 {
		t.Fatalf("x = %v, want 2", sol.X[x])
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classic cycling-prone instance (Beale). Optimum 0.05.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7
	// s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
	//      0.5x4 - 90x5 - 0.02x6 + 3x7 <= 0
	//      x6 <= 1
	p := NewProblem(Minimize)
	x4 := mustVar(t, p, -0.75, 0, math.Inf(1), "x4")
	x5 := mustVar(t, p, 150, 0, math.Inf(1), "x5")
	x6 := mustVar(t, p, -0.02, 0, math.Inf(1), "x6")
	x7 := mustVar(t, p, 6, 0, math.Inf(1), "x7")
	c1 := mustCon(t, p, LE, 0, "c1")
	c2 := mustCon(t, p, LE, 0, "c2")
	c3 := mustCon(t, p, LE, 1, "c3")
	mustTerm(t, p, c1, x4, 0.25)
	mustTerm(t, p, c1, x5, -60)
	mustTerm(t, p, c1, x6, -0.04)
	mustTerm(t, p, c1, x7, 9)
	mustTerm(t, p, c2, x4, 0.5)
	mustTerm(t, p, c2, x5, -90)
	mustTerm(t, p, c2, x6, -0.02)
	mustTerm(t, p, c2, x7, 3)
	mustTerm(t, p, c3, x6, 1)

	sol := solveOptimal(t, p)
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestVariableValidation(t *testing.T) {
	p := NewProblem(Minimize)
	if _, err := p.AddVariable(1, math.Inf(-1), 1, "bad-lo"); err == nil {
		t.Error("want error for -Inf lower bound")
	}
	if _, err := p.AddVariable(1, 2, 1, "lo>hi"); err == nil {
		t.Error("want error for lo > hi")
	}
	if _, err := p.AddConstraint(Rel(9), 0, "bad-rel"); err == nil {
		t.Error("want error for invalid relation")
	}
	if _, err := p.AddConstraint(LE, math.NaN(), "nan-rhs"); err == nil {
		t.Error("want error for NaN rhs")
	}
	if err := p.AddTerm(0, 0, 1); err == nil {
		t.Error("want error for term on missing row/col")
	}
}

func TestFixedVariable(t *testing.T) {
	// x fixed at 2 by equal bounds: min y s.t. y >= 5 - x → y = 3.
	p := NewProblem(Minimize)
	x := mustVar(t, p, 0, 2, 2, "x")
	y := mustVar(t, p, 1, 0, math.Inf(1), "y")
	c := mustCon(t, p, GE, 5, "c")
	mustTerm(t, p, c, x, 1)
	mustTerm(t, p, c, y, 1)

	sol := solveOptimal(t, p)
	if math.Abs(sol.X[x]-2) > 1e-9 {
		t.Fatalf("x = %v, want fixed 2", sol.X[x])
	}
	if math.Abs(sol.X[y]-3) > 1e-6 {
		t.Fatalf("y = %v, want 3", sol.X[y])
	}
}

// TestAssignmentLPIntegrality cross-checks the solver against brute
// force on random assignment problems, whose LP relaxations have
// integral optima equal to the min-cost perfect matching.
func TestAssignmentLPIntegrality(t *testing.T) {
	rng := stats.NewRNG(99)
	const n = 5
	for trial := 0; trial < 25; trial++ {
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = rng.Uniform(0, 10)
			}
		}

		p := NewProblem(Minimize)
		vars := make([][]int, n)
		for i := 0; i < n; i++ {
			vars[i] = make([]int, n)
			for j := 0; j < n; j++ {
				vars[i][j] = mustVar(t, p, cost[i][j], 0, 1, "x")
			}
		}
		for i := 0; i < n; i++ {
			r := mustCon(t, p, EQ, 1, "row")
			for j := 0; j < n; j++ {
				mustTerm(t, p, r, vars[i][j], 1)
			}
		}
		for j := 0; j < n; j++ {
			c := mustCon(t, p, EQ, 1, "col")
			for i := 0; i < n; i++ {
				mustTerm(t, p, c, vars[i][j], 1)
			}
		}

		sol := solveOptimal(t, p)
		want := bruteForceAssignment(cost)
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: LP objective %v, brute force %v", trial, sol.Objective, want)
		}
	}
}

func bruteForceAssignment(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var walk func(k int)
	walk = func(k int) {
		if k == n {
			var c float64
			for i, j := range perm {
				c += cost[i][j]
			}
			if c < best {
				best = c
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			walk(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	walk(0)
	return best
}

// TestRandomLPsFeasibleAndBounded fuzzes moderate random LPs and checks
// that every reported optimum is primal feasible and respects bounds.
func TestRandomLPsFeasibleAndBounded(t *testing.T) {
	rng := stats.NewRNG(123)
	for trial := 0; trial < 30; trial++ {
		nv := 3 + rng.Intn(6)
		nc := 2 + rng.Intn(5)
		p := NewProblem(Minimize)
		objs := make([]float64, nv)
		his := make([]float64, nv)
		for j := 0; j < nv; j++ {
			objs[j] = rng.Uniform(-2, 5)
			his[j] = rng.Uniform(0.5, 4)
			if _, err := p.AddVariable(objs[j], 0, his[j], "x"); err != nil {
				t.Fatal(err)
			}
		}
		type rowSpec struct {
			rel  Rel
			rhs  float64
			coef []float64
		}
		rows := make([]rowSpec, nc)
		for i := 0; i < nc; i++ {
			// Non-negative coefficients with <= keeps instances feasible
			// (origin feasible) and bounded (via variable bounds).
			r := rowSpec{rel: LE, rhs: rng.Uniform(1, 8), coef: make([]float64, nv)}
			row := mustCon(t, p, r.rel, r.rhs, "c")
			for j := 0; j < nv; j++ {
				if rng.Float64() < 0.6 {
					r.coef[j] = rng.Uniform(0, 3)
					mustTerm(t, p, row, j, r.coef[j])
				}
			}
			rows[i] = r
		}

		sol := solveOptimal(t, p)
		// Check feasibility of the reported point.
		for i, r := range rows {
			var lhs float64
			for j := 0; j < nv; j++ {
				lhs += r.coef[j] * sol.X[j]
			}
			if lhs > r.rhs+1e-6 {
				t.Fatalf("trial %d: row %d violated: %v > %v", trial, i, lhs, r.rhs)
			}
		}
		var obj float64
		for j := 0; j < nv; j++ {
			if sol.X[j] < -1e-9 || sol.X[j] > his[j]+1e-9 {
				t.Fatalf("trial %d: x[%d] = %v outside [0, %v]", trial, j, sol.X[j], his[j])
			}
			obj += objs[j] * sol.X[j]
		}
		if math.Abs(obj-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective mismatch: %v vs %v", trial, obj, sol.Objective)
		}
		// The optimum can never exceed the all-zero point's objective (0).
		if sol.Objective > 1e-9 {
			t.Fatalf("trial %d: objective %v worse than feasible origin", trial, sol.Objective)
		}
	}
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{StatusOptimal, "optimal"},
		{StatusInfeasible, "infeasible"},
		{StatusUnbounded, "unbounded"},
		{StatusIterLimit, "iteration-limit"},
		{Status(42), "status(42)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

// randomBoundedLP builds a feasible randomized max-LP (A >= 0, b > 0,
// boxed variables) whose constraint matrix has roughly the given
// nonzero density.
func randomBoundedLP(t *testing.T, rng *stats.RNG, m, n int, density float64) *Problem {
	t.Helper()
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		mustVar(t, p, rng.Uniform(0.1, 5), 0, rng.Uniform(0.5, 3), "")
	}
	for i := 0; i < m; i++ {
		mustCon(t, p, LE, rng.Uniform(1, 6), "")
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				mustTerm(t, p, i, j, rng.Uniform(0.1, 2))
			}
		}
	}
	return p
}

// TestBasisSizeSwitch pins the only selector left, the row count: the
// same LP solves on the dense inverse at luAutoRows-1 rows and, padded
// with one row that cannot bind, on LU factors at luAutoRows, to the
// same objective.
func TestBasisSizeSwitch(t *testing.T) {
	build := func(m int) *Problem {
		p := randomBoundedLP(t, stats.NewRNG(17), luAutoRows-1, 60, 0.1)
		for i := luAutoRows - 1; i < m; i++ {
			mustTerm(t, p, mustCon(t, p, LE, 1e6, "pad"), 0, 1)
		}
		return p
	}
	below := solveOptimal(t, build(luAutoRows-1))
	at := solveOptimal(t, build(luAutoRows))
	if below.Factorized || !at.Factorized {
		t.Fatalf("Factorized = %v at %d rows, %v at %d rows; want false, true",
			below.Factorized, luAutoRows-1, at.Factorized, luAutoRows)
	}
	if d := math.Abs(below.Objective - at.Objective); d > 1e-9*(1+math.Abs(below.Objective)) {
		t.Fatalf("objective %.15g at %d rows != %.15g at %d rows (Δ=%g)",
			below.Objective, luAutoRows-1, at.Objective, luAutoRows, d)
	}
}

// TestCSCCacheInvalidation: growing the problem after a solve must
// rebuild the cached column form; a stale cache would silently solve
// the old problem.
func TestCSCCacheInvalidation(t *testing.T) {
	p := NewProblem(Maximize)
	x := mustVar(t, p, 1, 0, 10, "x")
	c := mustCon(t, p, LE, 4, "cap")
	mustTerm(t, p, c, x, 1)
	sol := solveOptimal(t, p)
	if sol.Objective != 4 {
		t.Fatalf("objective %v, want 4", sol.Objective)
	}
	// New variable and term after the first solve.
	y := mustVar(t, p, 2, 0, 10, "y")
	c2 := mustCon(t, p, LE, 3, "cap2")
	mustTerm(t, p, c2, y, 1)
	sol = solveOptimal(t, p)
	if sol.Objective != 10 {
		t.Fatalf("after growth: objective %v, want 10 (x=4, y=3)", sol.Objective)
	}
	// SetBounds must take effect without an explicit cache rebuild.
	if err := p.SetBounds(x, 0, 1); err != nil {
		t.Fatal(err)
	}
	sol = solveOptimal(t, p)
	if sol.Objective != 7 {
		t.Fatalf("after SetBounds: objective %v, want 7 (x=1, y=3)", sol.Objective)
	}
}
