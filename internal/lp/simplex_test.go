package lp

import (
	"math"
	"slices"
	"testing"

	"metis/internal/stats"
)

// entry is one term of a draft column.
type entry struct {
	row int
	val float64
}

// draft is a test LP written term by term, in any order: variables,
// rows and coefficients interleaved, repeated terms of one cell
// accumulating. build emits it through the column API — every row with
// AddConstraint, then each column whole with AppendColumn — each
// column's terms sorted by row, with duplicates summed in the order
// they came and exact zeros dropped.
type draft struct {
	t           testing.TB
	sense       Sense
	obj, lo, hi []float64
	rel         []Rel
	rhs         []float64
	cols        [][]entry
}

func newDraft(t testing.TB, sense Sense) *draft { return &draft{t: t, sense: sense} }

// variable adds a variable with objective coefficient obj and bounds
// [lo, hi] and returns its column index. Names are not kept.
func (d *draft) variable(obj, lo, hi float64, _ string) int {
	d.obj, d.lo, d.hi = append(d.obj, obj), append(d.lo, lo), append(d.hi, hi)
	d.cols = append(d.cols, nil)
	return len(d.obj) - 1
}

// row adds the constraint "· rel rhs" and returns its row index.
func (d *draft) row(rel Rel, rhs float64, _ string) int {
	d.rel, d.rhs = append(d.rel, rel), append(d.rhs, rhs)
	return len(d.rel) - 1
}

// term adds v·x[col] to row.
func (d *draft) term(row, col int, v float64) {
	d.t.Helper()
	if row < 0 || row >= len(d.rel) || col < 0 || col >= len(d.obj) {
		d.t.Fatalf("term (%d, %d) out of range", row, col)
	}
	if v != 0 {
		d.cols[col] = append(d.cols[col], entry{row, v})
	}
}

// build returns the drafted LP as a new Problem.
func (d *draft) build() *Problem {
	d.t.Helper()
	p := NewProblem(d.sense)
	d.into(p)
	return p
}

// into rebuilds p as the drafted LP, over p's last build.
func (d *draft) into(p *Problem) {
	d.t.Helper()
	p.Reset(d.sense)
	for i, rel := range d.rel {
		if _, err := p.AddConstraint(rel, d.rhs[i], ""); err != nil {
			d.t.Fatal(err)
		}
	}
	var rows []int
	var vals []float64
	for j, col := range d.cols {
		rows, vals = rows[:0], vals[:0]
		for _, e := range mergedColumn(col) {
			rows, vals = append(rows, e.row), append(vals, e.val)
		}
		if _, err := p.AppendColumn(d.obj[j], d.lo[j], d.hi[j], rows, vals, ""); err != nil {
			d.t.Fatal(err)
		}
	}
}

// mergedColumn returns col with duplicate rows summed and zeros
// dropped, sorted by row. A column whose rows already strictly ascend
// is returned as it is (term keeps no zeros).
func mergedColumn(col []entry) []entry {
	ascending := true
	for k := 1; k < len(col) && ascending; k++ {
		ascending = col[k-1].row < col[k].row
	}
	if ascending {
		return col
	}
	sorted := slices.Clone(col)
	slices.SortStableFunc(sorted, func(a, b entry) int { return a.row - b.row })
	out := sorted[:0]
	for _, e := range sorted {
		if len(out) > 0 && out[len(out)-1].row == e.row {
			out[len(out)-1].val += e.val
			continue
		}
		out = append(out, e)
	}
	return slices.DeleteFunc(out, func(e entry) bool { return e.val == 0 })
}

func mustCon(t *testing.T, p *Problem, rel Rel, rhs float64, name string) int {
	t.Helper()
	i, err := p.AddConstraint(rel, rhs, name)
	if err != nil {
		t.Fatal(err)
	}
	return i
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
	d := newDraft(t, Maximize)
	x := d.variable(3, 0, math.Inf(1), "x")
	y := d.variable(5, 0, math.Inf(1), "y")
	c1 := d.row(LE, 4, "c1")
	c2 := d.row(LE, 12, "c2")
	c3 := d.row(LE, 18, "c3")
	d.term(c1, x, 1)
	d.term(c2, y, 2)
	d.term(c3, x, 3)
	d.term(c3, y, 2)

	p := d.build()
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
	d := newDraft(t, Minimize)
	x := d.variable(2, 0, math.Inf(1), "x")
	y := d.variable(3, 0, math.Inf(1), "y")
	c1 := d.row(GE, 4, "c1")
	c2 := d.row(GE, 6, "c2")
	d.term(c1, x, 1)
	d.term(c1, y, 1)
	d.term(c2, x, 1)
	d.term(c2, y, 2)

	p := d.build()
	sol := solveOptimal(t, p)
	if math.Abs(sol.Objective-10) > 1e-6 {
		t.Fatalf("objective = %v, want 10", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y  s.t. x + y == 3, y <= 1 → x=2, y=1, obj=4.
	d := newDraft(t, Minimize)
	x := d.variable(1, 0, math.Inf(1), "x")
	y := d.variable(2, 0, 1, "y")
	c1 := d.row(EQ, 3, "c1")
	d.term(c1, x, 1)
	d.term(c1, y, 1)

	p := d.build()
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
	d := newDraft(t, Maximize)
	x := d.variable(2, 0, 1.5, "x")
	y := d.variable(1, 0, math.Inf(1), "y")
	c := d.row(LE, 2, "cap")
	d.term(c, x, 1)
	d.term(c, y, 1)

	p := d.build()
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
	d := newDraft(t, Minimize)
	x := d.variable(1, 1, math.Inf(1), "x")
	y := d.variable(1, 0.5, math.Inf(1), "y")
	c := d.row(GE, 3, "c")
	d.term(c, x, 1)
	d.term(c, y, 1)

	p := d.build()
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
	d := newDraft(t, Minimize)
	x := d.variable(1, 0, math.Inf(1), "x")
	c1 := d.row(LE, 1, "c1")
	c2 := d.row(GE, 2, "c2")
	d.term(c1, x, 1)
	d.term(c2, x, 1)

	p := d.build()
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
	d := newDraft(t, Maximize)
	x := d.variable(1, 0, math.Inf(1), "x")
	c := d.row(GE, 0, "c")
	d.term(c, x, 1)

	p := d.build()
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
	d := newDraft(t, Minimize)
	x := d.variable(1, 0, math.Inf(1), "x")
	c := d.row(LE, -2, "c")
	d.term(c, x, -1)

	p := d.build()
	sol := solveOptimal(t, p)
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestAccumulatingTerms(t *testing.T) {
	// Adding 1 then 2 on the same cell gives coefficient 3:
	// min x s.t. 3x >= 6 → x = 2.
	d := newDraft(t, Minimize)
	x := d.variable(1, 0, math.Inf(1), "x")
	c := d.row(GE, 6, "c")
	d.term(c, x, 1)
	d.term(c, x, 2)

	p := d.build()
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
	d := newDraft(t, Minimize)
	x4 := d.variable(-0.75, 0, math.Inf(1), "x4")
	x5 := d.variable(150, 0, math.Inf(1), "x5")
	x6 := d.variable(-0.02, 0, math.Inf(1), "x6")
	x7 := d.variable(6, 0, math.Inf(1), "x7")
	c1 := d.row(LE, 0, "c1")
	c2 := d.row(LE, 0, "c2")
	c3 := d.row(LE, 1, "c3")
	d.term(c1, x4, 0.25)
	d.term(c1, x5, -60)
	d.term(c1, x6, -0.04)
	d.term(c1, x7, 9)
	d.term(c2, x4, 0.5)
	d.term(c2, x5, -90)
	d.term(c2, x6, -0.02)
	d.term(c2, x7, 3)
	d.term(c3, x6, 1)

	p := d.build()
	sol := solveOptimal(t, p)
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestVariableValidation(t *testing.T) {
	p := NewProblem(Minimize)
	if _, err := p.AppendColumn(1, math.Inf(-1), 1, nil, nil, "bad-lo"); err == nil {
		t.Error("want error for -Inf lower bound")
	}
	if _, err := p.AppendColumn(1, 2, 1, nil, nil, "lo>hi"); err == nil {
		t.Error("want error for lo > hi")
	}
	if _, err := p.AddConstraint(Rel(9), 0, "bad-rel"); err == nil {
		t.Error("want error for invalid relation")
	}
	if _, err := p.AddConstraint(LE, math.NaN(), "nan-rhs"); err == nil {
		t.Error("want error for NaN rhs")
	}
	if _, err := p.AppendColumn(1, 0, 1, []int{0}, []float64{1}, "no-row"); err == nil {
		t.Error("want error for a term on a missing row")
	}
	if p.NumVariables() != 0 {
		t.Fatalf("failed appends left %d variables behind", p.NumVariables())
	}
}

func TestFixedVariable(t *testing.T) {
	// x fixed at 2 by equal bounds: min y s.t. y >= 5 - x → y = 3.
	d := newDraft(t, Minimize)
	x := d.variable(0, 2, 2, "x")
	y := d.variable(1, 0, math.Inf(1), "y")
	c := d.row(GE, 5, "c")
	d.term(c, x, 1)
	d.term(c, y, 1)

	p := d.build()
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

		d := newDraft(t, Minimize)
		vars := make([][]int, n)
		for i := 0; i < n; i++ {
			vars[i] = make([]int, n)
			for j := 0; j < n; j++ {
				vars[i][j] = d.variable(cost[i][j], 0, 1, "x")
			}
		}
		for i := 0; i < n; i++ {
			r := d.row(EQ, 1, "row")
			for j := 0; j < n; j++ {
				d.term(r, vars[i][j], 1)
			}
		}
		for j := 0; j < n; j++ {
			c := d.row(EQ, 1, "col")
			for i := 0; i < n; i++ {
				d.term(c, vars[i][j], 1)
			}
		}

		p := d.build()
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
		d := newDraft(t, Minimize)
		objs := make([]float64, nv)
		his := make([]float64, nv)
		for j := 0; j < nv; j++ {
			objs[j] = rng.Uniform(-2, 5)
			his[j] = rng.Uniform(0.5, 4)
			d.variable(objs[j], 0, his[j], "x")
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
			row := d.row(r.rel, r.rhs, "c")
			for j := 0; j < nv; j++ {
				if rng.Float64() < 0.6 {
					r.coef[j] = rng.Uniform(0, 3)
					d.term(row, j, r.coef[j])
				}
			}
			rows[i] = r
		}

		sol := solveOptimal(t, d.build())
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
	return randomBoundedDraft(t, rng, m, n, density).build()
}

// randomBoundedDraft drafts the LP randomBoundedLP builds.
func randomBoundedDraft(t *testing.T, rng *stats.RNG, m, n int, density float64) *draft {
	d := newDraft(t, Maximize)
	for j := 0; j < n; j++ {
		d.variable(rng.Uniform(0.1, 5), 0, rng.Uniform(0.5, 3), "")
	}
	for i := 0; i < m; i++ {
		d.row(LE, rng.Uniform(1, 6), "")
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				d.term(i, j, rng.Uniform(0.1, 2))
			}
		}
	}
	return d
}

// TestBasisSizeSwitch pins the only selector left, the row count: the
// same LP solves on the dense inverse at luAutoRows-1 rows and, padded
// with one row that cannot bind, on LU factors at luAutoRows, to the
// same objective.
func TestBasisSizeSwitch(t *testing.T) {
	build := func(m int) *Problem {
		d := randomBoundedDraft(t, stats.NewRNG(17), luAutoRows-1, 60, 0.1)
		for i := luAutoRows - 1; i < m; i++ {
			d.term(d.row(LE, 1e6, "pad"), 0, 1)
		}
		return d.build()
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

// TestCSCCacheInvalidation: growing the problem after a solve — a row,
// then a column appended into the compressed matrix — must take effect
// on the next solve; a stale matrix would silently solve the old
// problem.
func TestCSCCacheInvalidation(t *testing.T) {
	d := newDraft(t, Maximize)
	x := d.variable(1, 0, 10, "x")
	c := d.row(LE, 4, "cap")
	d.term(c, x, 1)
	p := d.build()
	sol := solveOptimal(t, p)
	if sol.Objective != 4 {
		t.Fatalf("objective %v, want 4", sol.Objective)
	}
	// New row and column after the first solve.
	c2 := mustCon(t, p, LE, 3, "cap2")
	if _, err := p.AppendColumn(2, 0, 10, []int{c2}, []float64{1}, "y"); err != nil {
		t.Fatal(err)
	}
	sol = solveOptimal(t, p)
	if sol.Objective != 10 {
		t.Fatalf("after growth: objective %v, want 10 (x=4, y=3)", sol.Objective)
	}
	// SetBounds must take effect without a rebuild.
	if err := p.SetBounds(x, 0, 1); err != nil {
		t.Fatal(err)
	}
	sol = solveOptimal(t, p)
	if sol.Objective != 7 {
		t.Fatalf("after SetBounds: objective %v, want 7 (x=1, y=3)", sol.Objective)
	}
}
