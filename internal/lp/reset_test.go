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

// termByTerm builds max obj·x, rows ≤ rhs, 0 ≤ x ≤ 1 the classic way:
// AddVariable, AddConstraint and one AddTerm per nonzero.
func termByTerm(t *testing.T, rhs []float64, cols []appendCol) *Problem {
	t.Helper()
	p := NewProblem(Maximize)
	for _, c := range cols {
		if _, err := p.AddVariable(c.obj, 0, 1, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range rhs {
		if _, err := p.AddConstraint(LE, b, ""); err != nil {
			t.Fatal(err)
		}
	}
	for j, c := range cols {
		for k, r := range c.rows {
			if err := p.AddTerm(r, j, c.vals[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

// rebuild makes p the same LP column-major, over its last build.
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
// simplex working arrays of its last build — has the compressed matrix
// of the same LP built term by term and solves to the same pivots and
// bits, across rebuilds that grow and shrink it on both sides of the
// dense/LU switch; an AddTerm after a Reset build edits the same LP.
func TestResetRebuild(t *testing.T) {
	rng := stats.NewRNG(4811)
	var p Problem
	for trial, m := range []int{12, 150, 40, 200, 8, 130} {
		rhs := make([]float64, m)
		for i := range rhs {
			rhs[i] = rng.Uniform(1, 8)
		}
		cols := randomColumns(rng, m, m+rng.Intn(m), 6/float64(m))
		fresh := termByTerm(t, rhs, cols)
		rebuild(t, &p, rhs, cols)
		got, want := p.matrixCSC(), fresh.matrixCSC()
		if !slices.Equal(got.colPtr, want.colPtr) || !slices.Equal(got.rows, want.rows) || !slices.Equal(got.vals, want.vals) {
			t.Fatalf("trial %d: rebuilt matrix differs from the term-by-term one", trial)
		}
		a, _ := p.Solve(Options{})
		b, _ := fresh.Solve(Options{})
		sameSolve(t, "rebuilt", a, b)
		if p.work == nil {
			t.Fatalf("trial %d: a Reset problem gave its working arrays away", trial)
		}
	}

	// An edit after a Reset build: the term lists come back from the
	// compressed matrix.
	rhs := []float64{2, 3, 1}
	cols := randomColumns(rng, 3, 5, 0.7)
	fresh := termByTerm(t, rhs, cols)
	rebuild(t, &p, rhs, cols)
	for _, q := range []*Problem{&p, fresh} {
		if err := q.AddTerm(1, 4, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := p.Solve(Options{})
	b, _ := fresh.Solve(Options{})
	sameSolve(t, "edited", a, b)
	if p.work == nil {
		t.Fatal("an edited Reset problem gave its working arrays away")
	}

	p.Release()
	if p.work != nil {
		t.Fatal("Release kept the working arrays")
	}
}

// TestBasisReleaseKeepsClone: Release pools a handle's working arrays,
// but not the ones Clone shares with another handle — other solves that
// take pooled arrays must leave the clone intact, and it still
// warm-solves (no cold fallback) to the cold optimum.
func TestBasisReleaseKeepsClone(t *testing.T) {
	rng := stats.NewRNG(2207)
	rhs := make([]float64, 140)
	for i := range rhs {
		rhs[i] = rng.Uniform(1, 8)
	}
	p := termByTerm(t, rhs, randomColumns(rng, len(rhs), 180, 0.04))
	parent := NewBasis()
	if sol, _ := p.Solve(Options{Warm: parent}); sol.Status != StatusOptimal {
		t.Fatalf("parent solve: %v", sol.Status)
	}
	clone := parent.Clone()
	parent.Release()
	if parent.Valid() {
		t.Fatal("a released handle still holds a basis")
	}

	// Solves of a smaller LP run in pooled arrays, overwriting whatever
	// the pool handed them.
	q := termByTerm(t, rhs[:130], randomColumns(rng, 130, 150, 0.05))
	for range 3 {
		if _, err := q.Solve(Options{}); err != nil {
			t.Fatal(err)
		}
	}

	if err := p.SetBounds(0, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	warm, _ := p.Solve(Options{Warm: clone})
	cold, _ := p.Solve(Options{})
	if !warm.Warm || warm.Status != cold.Status || math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
		t.Fatalf("clone after its parent's release: %v obj %v (warm path %v), cold %v obj %v",
			warm.Status, warm.Objective, warm.Warm, cold.Status, cold.Objective)
	}
}
