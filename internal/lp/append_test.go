package lp

import (
	"math"
	"slices"
	"testing"

	"metis/internal/stats"
)

// appendOp is one unit of append-only growth: an optional empty ≤ row
// followed by a batch of columns, the shape BLSession feeds the solver
// (cap rows exist up front; each arrival appends its accept row and
// routing columns).
type appendOp struct {
	rowRHS float64 // ≤ row appended first when >= 0
	cols   []appendCol
}

type appendCol struct {
	obj  float64
	rows []int
	vals []float64
}

// replayLP rebuilds a problem from its construction log: the base
// (rows, then columns) plus every append op, applied with the plain
// AddConstraint/AppendColumn calls. Used as the cold-rebuild oracle.
func replayLP(t *testing.T, baseRows []float64, baseCols []appendCol, ops []appendOp) *Problem {
	t.Helper()
	p := NewProblem(Maximize)
	for _, rhs := range baseRows {
		if _, err := p.AddConstraint(LE, rhs, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range baseCols {
		if _, err := p.AppendColumn(c.obj, 0, 1, c.rows, c.vals, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range ops {
		if op.rowRHS >= 0 {
			if _, err := p.AddConstraint(LE, op.rowRHS, ""); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range op.cols {
			if _, err := p.AppendColumn(c.obj, 0, 1, c.rows, c.vals, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

// TestAppendColumnKeepsCSCCache: AppendColumn after a solve must extend
// the constraint matrix in place — every entry already there stays
// where it was — and the extension must be bit-identical to the problem
// built with the appended row and column from the start.
func TestAppendColumnKeepsCSCCache(t *testing.T) {
	baseRows := []float64{4, 6}
	baseCols := []appendCol{
		{obj: 3, rows: []int{0, 1}, vals: []float64{1, 2}},
		{obj: 2, rows: []int{1}, vals: []float64{1}},
	}
	p := replayLP(t, baseRows, baseCols, nil)
	if sol := solveOptimal(t, p); sol == nil {
		t.Fatal("no solution")
	}
	before := csc{slices.Clone(p.matrix.colPtr), slices.Clone(p.matrix.rows), slices.Clone(p.matrix.vals)}

	ops := []appendOp{{
		rowRHS: 1,
		cols:   []appendCol{{obj: 5, rows: []int{0, 2}, vals: []float64{1, 1}}},
	}}
	if _, err := p.AddConstraint(LE, ops[0].rowRHS, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AppendColumn(5, 0, 1, ops[0].cols[0].rows, ops[0].cols[0].vals, ""); err != nil {
		t.Fatal(err)
	}
	mat := &p.matrix
	if !slices.Equal(mat.colPtr[:len(before.colPtr)], before.colPtr) || !slices.Equal(mat.rows[:len(before.rows)], before.rows) ||
		!slices.Equal(mat.vals[:len(before.vals)], before.vals) {
		t.Fatal("AppendColumn moved entries of the columns already there")
	}
	if d := p.Diff(replayLP(t, baseRows, baseCols, ops)); d != "" {
		t.Fatalf("extended problem differs from the one built whole: %s", d)
	}
}

// TestAppendColumnValidation: malformed appends are rejected without
// mutating the problem.
func TestAppendColumnValidation(t *testing.T) {
	p := NewProblem(Maximize)
	if _, err := p.AddConstraint(LE, 1, "r"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		rows []int
		vals []float64
	}{
		{"row out of range", []int{1}, []float64{1}},
		{"negative row", []int{-1}, []float64{1}},
		{"unsorted rows", []int{0, 0}, []float64{1, 1}},
		{"length mismatch", []int{0}, []float64{1, 2}},
		{"NaN coefficient", []int{0}, []float64{math.NaN()}},
	}
	for _, tc := range cases {
		if _, err := p.AppendColumn(1, 0, 1, tc.rows, tc.vals, tc.name); err == nil {
			t.Errorf("%s: AppendColumn succeeded, want error", tc.name)
		}
	}
	if _, err := p.AppendColumn(1, 2, 1, nil, nil, "bad bounds"); err == nil {
		t.Error("lo > hi accepted")
	}
	if p.NumVariables() != 0 {
		t.Fatalf("failed appends left %d variables behind", p.NumVariables())
	}
}

// TestWarmGrowAppendedColumns: the canonical grow round trip. A cold
// solve captures a basis; appending a ≤ row plus columns must NOT go
// stale — the grown warm solve completes on the warm path and matches
// a cold solve of the identically rebuilt problem.
func TestWarmGrowAppendedColumns(t *testing.T) {
	baseRows := []float64{4, 6}
	baseCols := []appendCol{
		{obj: 3, rows: []int{0, 1}, vals: []float64{1, 2}},
		{obj: 2, rows: []int{1}, vals: []float64{1}},
	}
	p := replayLP(t, baseRows, baseCols, nil)
	basis := NewBasis()
	if _, err := p.Solve(Options{Warm: basis}); err != nil {
		t.Fatal(err)
	}

	ops := []appendOp{{
		rowRHS: 1,
		cols: []appendCol{
			{obj: 5, rows: []int{0, 2}, vals: []float64{1, 1}},
			{obj: 1, rows: []int{1, 2}, vals: []float64{1, 1}},
		},
	}}
	if _, err := p.AddConstraint(LE, 1, ""); err != nil {
		t.Fatal(err)
	}
	for _, c := range ops[0].cols {
		if _, err := p.AppendColumn(c.obj, 0, 1, c.rows, c.vals, ""); err != nil {
			t.Fatal(err)
		}
	}

	warm, err := p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("grown solve fell back to the cold path")
	}
	cold := solveOptimal(t, replayLP(t, baseRows, baseCols, ops))
	if warm.Status != cold.Status {
		t.Fatalf("warm status %v != cold %v", warm.Status, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
		t.Fatalf("warm objective %.15g != cold %.15g", warm.Objective, cold.Objective)
	}
}

// TestWarmGrowIncompatibleFallsBackCold: growth the basis cannot
// absorb — an appended GE row — demotes the warm solve to a cold one
// that still returns the right optimum and recaptures.
func TestWarmGrowIncompatibleFallsBackCold(t *testing.T) {
	p := NewProblem(Maximize)
	c := mustCon(t, p, LE, 4, "c")
	if _, err := p.AppendColumn(3, 0, 5, []int{c}, []float64{1}, "x"); err != nil {
		t.Fatal(err)
	}
	basis := NewBasis()
	if _, err := p.Solve(Options{Warm: basis}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddConstraint(GE, 1, "floor"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AppendColumn(0, 0, 10, []int{1}, []float64{1}, "y"); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warm {
		t.Fatal("GE-row growth must not ride the warm path")
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-12) > 1e-9 {
		t.Fatalf("cold fallback got %v obj %v, want optimal 12", sol.Status, sol.Objective)
	}
	if !basis.Valid() {
		t.Fatal("cold fallback did not recapture a basis")
	}
}

// TestWarmGrowRandomized is the grow-path differential sweep: random
// BL-shaped problems grow through random append batches interleaved
// with SetRHS/SetBounds deltas; after every step the grown warm solve
// must agree with a cold solve of the identically rebuilt problem on
// status and objective, and — when the optimum is a unique vertex — on
// X. Failure messages carry the trial seed.
func TestWarmGrowRandomized(t *testing.T) {
	growHits, solves := 0, 0
	for trial := 0; trial < 30; trial++ {
		seed := int64(43000 + trial)
		rng := stats.NewRNG(seed)
		m0 := 3 + rng.Intn(10)
		baseRows := make([]float64, m0)
		for i := range baseRows {
			baseRows[i] = rng.Uniform(1, 8)
		}
		randCol := func(m int) appendCol {
			c := appendCol{obj: rng.Uniform(0.2, 5)}
			for r := 0; r < m; r++ {
				if rng.Float64() < 0.4 {
					c.rows = append(c.rows, r)
					c.vals = append(c.vals, rng.Uniform(0.1, 2))
				}
			}
			return c
		}
		n0 := 2 + rng.Intn(8)
		baseCols := make([]appendCol, n0)
		for j := range baseCols {
			baseCols[j] = randCol(m0)
		}

		p := replayLP(t, baseRows, baseCols, nil)
		basis := NewBasis()
		if _, err := p.Solve(Options{Warm: basis}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		var ops []appendOp
		m, n := m0, n0
		for round := 0; round < 5; round++ {
			op := appendOp{rowRHS: -1}
			if rng.Float64() < 0.7 {
				op.rowRHS = rng.Uniform(0.5, 4)
			}
			rowsNow := m
			if op.rowRHS >= 0 {
				rowsNow++
			}
			for k := rng.Intn(3); k >= 0; k-- {
				op.cols = append(op.cols, randCol(rowsNow))
			}
			ops = append(ops, op)
			if op.rowRHS >= 0 {
				if _, err := p.AddConstraint(LE, op.rowRHS, ""); err != nil {
					t.Fatal(err)
				}
				m++
			}
			for _, c := range op.cols {
				if _, err := p.AppendColumn(c.obj, 0, 1, c.rows, c.vals, ""); err != nil {
					t.Fatal(err)
				}
				n++
			}
			// Interleave the delta kinds a live session applies between
			// appends: capacity retargets and activation toggles.
			q := replayLP(t, baseRows, baseCols, ops)
			for i := 0; i < m; i++ {
				if rng.Float64() < 0.3 {
					rhs := rng.Uniform(0.3, 6)
					if err := p.SetRHS(i, rhs); err != nil {
						t.Fatal(err)
					}
					if err := q.SetRHS(i, rhs); err != nil {
						t.Fatal(err)
					}
				} else if prev := p.rhs[i]; prev != q.rhs[i] {
					if err := q.SetRHS(i, prev); err != nil {
						t.Fatal(err)
					}
				}
			}
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.15 {
					hi := float64(rng.Intn(2)) // deactivate or restore
					if err := p.SetBounds(j, 0, hi); err != nil {
						t.Fatal(err)
					}
				}
				if lo, hi := p.Bounds(j); true {
					if err := q.SetBounds(j, lo, hi); err != nil {
						t.Fatal(err)
					}
				}
			}

			warm, err := p.Solve(Options{Warm: basis})
			if err != nil {
				t.Fatalf("seed %d round %d warm: %v", seed, round, err)
			}
			cold, err := q.Solve(Options{})
			if err != nil {
				t.Fatalf("seed %d round %d cold: %v", seed, round, err)
			}
			solves++
			if warm.Warm {
				growHits++
			}
			if warm.Status != cold.Status {
				t.Fatalf("seed %d round %d: warm status %v != cold %v", seed, round, warm.Status, cold.Status)
			}
			if cold.Status != StatusOptimal {
				continue
			}
			tol := 1e-9 * (1 + math.Abs(cold.Objective))
			if math.Abs(warm.Objective-cold.Objective) > tol {
				t.Fatalf("seed %d round %d: warm objective %.15g != cold %.15g (Δ=%g)",
					seed, round, warm.Objective, cold.Objective, warm.Objective-cold.Objective)
			}
			if !warm.Degenerate {
				for j := range cold.X {
					if math.Abs(warm.X[j]-cold.X[j]) > 1e-6 {
						t.Fatalf("seed %d round %d: unique-vertex X[%d] differs: warm %.12g cold %.12g",
							seed, round, j, warm.X[j], cold.X[j])
					}
				}
			}
		}
	}
	if growHits == 0 {
		t.Fatal("grow path never engaged across all trials")
	}
	t.Logf("grow/warm path engaged on %d/%d solves", growHits, solves)
}
