package lp

import (
	"math"
	"slices"
	"testing"

	"metis/internal/stats"
)

// randomColumns draws n columns over m ≤ rows: row-ascending entries of
// the given density, positive objective coefficients.
func randomColumns(rng *stats.RNG, m, n int, density float64) []appendCol {
	cols := make([]appendCol, n)
	for j := range cols {
		cols[j].obj = rng.Uniform(0.2, 5)
		for r := 0; r < m; r++ {
			if rng.Float64() < density {
				cols[j].rows = append(cols[j].rows, r)
				cols[j].vals = append(cols[j].vals, rng.Uniform(0.1, 2))
			}
		}
	}
	return cols
}

// rebuild makes p max obj·x, rows ≤ rhs, 0 ≤ x ≤ 1, over its last build.
func rebuild(t *testing.T, p *Problem, rhs []float64, cols []appendCol) {
	t.Helper()
	p.Reset(Maximize)
	for _, b := range rhs {
		if _, err := p.AddConstraint(LE, b, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cols {
		if _, err := p.AppendColumn(c.obj, 0, 1, c.rows, c.vals, ""); err != nil {
			t.Fatal(err)
		}
	}
}

// sameSolve fails unless two solutions match bit for bit.
func sameSolve(t *testing.T, what string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status || got.Iters != want.Iters ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || !slices.Equal(got.X, want.X) {
		t.Fatalf("%s: %v obj %v after %d iters, want %v obj %v after %d",
			what, got.Status, got.Objective, got.Iters, want.Status, want.Objective, want.Iters)
	}
}

// TestResetRebuild: a problem rebuilt with Reset — rows by
// AddConstraint, columns whole by AppendColumn, into the arrays and
// simplex working arrays of its last build — is the LP a fresh problem
// built the same way is, bit for bit, and solves to the same pivots and
// bits, across rebuilds that grow and shrink it on both sides of the
// dense/LU switch. The zero Problem, once Reset, is a fresh problem.
func TestResetRebuild(t *testing.T) {
	rng := stats.NewRNG(4811)
	var p Problem
	for trial, m := range []int{12, 150, 40, 200, 8, 130} {
		rhs := make([]float64, m)
		for i := range rhs {
			rhs[i] = rng.Uniform(1, 8)
		}
		cols := randomColumns(rng, m, m+rng.Intn(m), 6/float64(m))
		fresh := new(Problem)
		rebuild(t, fresh, rhs, cols)
		rebuild(t, &p, rhs, cols)
		if d := p.Diff(fresh); d != "" {
			t.Fatalf("trial %d: rebuilt problem differs from a fresh one: %s", trial, d)
		}
		a, _ := p.Solve(Options{})
		b, _ := fresh.Solve(Options{})
		sameSolve(t, "rebuilt", a, b)
		if p.work == nil {
			t.Fatalf("trial %d: a problem gave its working arrays away", trial)
		}
	}
	p.Release()
	if p.work != nil {
		t.Fatal("Release kept the working arrays")
	}
}

// bigLP is max obj·x over 140 random ≤ rows and 180 columns in [0, 1]:
// large enough for the LU basis.
func bigLP(t *testing.T) *draft {
	rng := stats.NewRNG(2207)
	d := newDraft(t, Maximize)
	for range 140 {
		d.row(LE, rng.Uniform(1, 8), "")
	}
	for _, c := range randomColumns(rng, 140, 180, 0.04) {
		j := d.variable(c.obj, 0, 1, "")
		for k, r := range c.rows {
			d.term(r, j, c.vals[k])
		}
	}
	return d
}

// sharesMatrix reports whether two working problems share the
// backing array of their working matrix, as a handle and its Clone do.
func sharesMatrix(a, b *simplex) bool {
	return a != nil && b != nil && len(a.vals) > 0 && len(b.vals) > 0 && &a.vals[0] == &b.vals[0]
}

// TestBasisResetKeepsClone: dropping a handle hands its working arrays
// back to its home problem, but never the ones Clone shares with
// another handle — whichever of the two is reset. The problem's arrays
// go on to the pool and to another LP's solves, which must leave the
// clone intact: it still warm-solves (no cold fallback) to the cold
// optimum.
func TestBasisResetKeepsClone(t *testing.T) {
	p := bigLP(t).build()
	parent := NewBasis()
	if sol, _ := p.Solve(Options{Warm: parent}); sol.Status != StatusOptimal {
		t.Fatalf("parent solve: %v", sol.Status)
	}
	clone := parent.Clone()
	parent.Reset()
	if parent.Valid() {
		t.Fatal("a reset handle still holds a basis")
	}
	if sharesMatrix(p.work, clone.sx) {
		t.Fatal("a reset handle gave its problem the arrays its clone shares")
	}

	// Solves of another LP run in the arrays p gave back, overwriting
	// them.
	p.Release()
	rng := stats.NewRNG(2208)
	rhs := make([]float64, 150)
	for i := range rhs {
		rhs[i] = rng.Uniform(1, 8)
	}
	var q Problem
	rebuild(t, &q, rhs, randomColumns(rng, 150, 170, 0.05))
	for range 3 {
		if _, err := q.Solve(Options{}); err != nil {
			t.Fatal(err)
		}
		q.Release()
	}

	if err := p.SetBounds(0, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	warm, _ := p.Solve(Options{Warm: clone})
	warmStatus, warmObj, warmPath := warm.Status, warm.Objective, warm.Warm
	cold, _ := p.Solve(Options{})
	if !warmPath || warmStatus != cold.Status || math.Abs(warmObj-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
		t.Fatalf("clone after its parent's reset: %v obj %v (warm path %v), cold %v obj %v",
			warmStatus, warmObj, warmPath, cold.Status, cold.Objective)
	}

	// The other way round: a reset clone keeps its parent's arrays.
	p.Release()
	child := clone.Clone()
	child.Reset()
	if sharesMatrix(p.work, clone.sx) {
		t.Fatal("a reset clone gave its problem the arrays its parent shares")
	}
}

// TestBasisFingerprint: a handle belongs to the problem whose solve
// captured it and to that problem's build. Passed to a second problem
// with the same rows, columns and data, it is stale and the solve runs
// cold; so it is after a Reset of its own problem, even one that
// rebuilds the same LP. Appended columns and ≤ rows keep it: the next
// solve grows the retained basis on the warm path.
func TestBasisFingerprint(t *testing.T) {
	d := bigLP(t)
	p, q := d.build(), d.build()
	h := NewBasis()
	sol, err := p.Solve(Options{Warm: h})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("capture solve: %v %v", sol.Status, err)
	}
	want := sol.Objective
	staleSolve := func(what string, r *Problem) {
		t.Helper()
		stale, grows := cWarmStale.Value(), cWarmGrows.Value()
		sol, err := r.Solve(Options{Warm: h})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Warm || cWarmStale.Value() != stale+1 || cWarmGrows.Value() != grows {
			t.Fatalf("%s: warm path %v, stale +%d, grows +%d; want a cold solve counted stale",
				what, sol.Warm, cWarmStale.Value()-stale, cWarmGrows.Value()-grows)
		}
		if sol.Status != StatusOptimal || math.Float64bits(sol.Objective) != math.Float64bits(want) {
			t.Fatalf("%s: %v obj %v, want optimal %v", what, sol.Status, sol.Objective, want)
		}
	}
	staleSolve("another problem's handle", q)
	if h.home != q {
		t.Fatal("the cold solve did not recapture the handle on its problem")
	}
	d.into(q)
	staleSolve("a handle captured before a Reset", q)

	// Growth: a ≤ row and a column over it and an old row.
	grows := cWarmGrows.Value()
	r := mustCon(t, q, LE, 0.5, "new")
	if _, err := q.AppendColumn(7, 0, 1, []int{3, r}, []float64{0.5, 1}, "y"); err != nil {
		t.Fatal(err)
	}
	if sol, err = q.Solve(Options{Warm: h}); err != nil || sol.Status != StatusOptimal {
		t.Fatalf("grown solve: %v %v", sol.Status, err)
	}
	if !sol.Warm || cWarmGrows.Value() != grows+1 {
		t.Fatalf("grown solve: warm path %v, grows +%d; want the warm grow path", sol.Warm, cWarmGrows.Value()-grows)
	}
	got := sol.Objective
	y := d.variable(7, 0, 1, "y")
	d.term(3, y, 0.5)
	d.term(d.row(LE, 0.5, "new"), y, 1)
	ref := solveOptimal(t, d.build())
	if math.Abs(got-ref.Objective) > 1e-9*(1+math.Abs(ref.Objective)) {
		t.Fatalf("grown warm objective %.15g, cold %.15g", got, ref.Objective)
	}
}
