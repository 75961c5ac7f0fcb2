package lp

import (
	"math"
	"testing"

	"metis/internal/stats"
)

// randomSeed picks up to k structural columns of p in random order and
// names, for each, a row of its own column that no earlier pick took:
// a seed that is often, but not always, nonsingular.
func randomSeed(p *Problem, rng *stats.RNG, k int) (rows, cols []int) {
	taken := make([]bool, len(p.rel))
	for _, j := range rng.Perm(len(p.obj)) {
		if len(cols) == k {
			break
		}
		col := p.mergedColumn(j)
		if len(col) == 0 {
			continue
		}
		e := col[rng.Intn(len(col))]
		if taken[e.row] {
			continue
		}
		taken[e.row] = true
		rows = append(rows, e.row)
		cols = append(cols, j)
	}
	return rows, cols
}

// routingLP builds a random LP of the BL-SPM shape: requests, each
// with a value, a rate and a few candidate paths over random links; an
// accept row Σ_j x[i][j] ≤ 1 per request and a capacity row per link.
// Capacities are the loads of routing every request on its first path,
// scaled by U(0.5, 1.1), so some links are overloaded. It returns the
// seed that routing names: each request's first path in its accept row.
func routingLP(t *testing.T, rng *stats.RNG, requests, links int) (p *Problem, rows, cols []int) {
	t.Helper()
	p = NewProblem(Maximize)
	for i := 0; i < requests; i++ {
		mustCon(t, p, LE, 1, "accept")
	}
	capRow := make([]int, links)
	for l := range capRow {
		capRow[l] = mustCon(t, p, LE, 0, "cap")
	}
	load := make([]float64, links)
	for i := 0; i < requests; i++ {
		value, rate := rng.Uniform(1, 5), rng.Uniform(0.1, 1)
		for j := 0; j < 3; j++ {
			x := mustVar(t, p, value, 0, 1, "x")
			mustTerm(t, p, i, x, 1)
			for _, l := range rng.Perm(links)[:1+rng.Intn(3)] {
				mustTerm(t, p, capRow[l], x, rate)
				if j == 0 {
					load[l] += rate
				}
			}
			if j == 0 {
				rows, cols = append(rows, i), append(cols, x)
			}
		}
	}
	for l, row := range capRow {
		if err := p.SetRHS(row, load[l]*rng.Uniform(0.5, 1.1)); err != nil {
			t.Fatal(err)
		}
	}
	return p, rows, cols
}

// solveSeeded solves p from SeedBasis(rows, cols) and its twin q cold,
// and fails unless both report the same status and, at an optimum, the
// same objective (±1e-9 relative).
func solveSeeded(t *testing.T, p, q *Problem, rows, cols []int) *Solution {
	t.Helper()
	basis := p.SeedBasis(rows, cols)
	seeded := basis.Valid()
	sol, err := p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := q.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != cold.Status {
		t.Fatalf("seeded status %v != cold %v", sol.Status, cold.Status)
	}
	if tol := 1e-9 * (1 + math.Abs(cold.Objective)); cold.Status == StatusOptimal &&
		math.Abs(sol.Objective-cold.Objective) > tol {
		t.Fatalf("seeded objective %.15g != cold %.15g (seeded %v, warm %v)",
			sol.Objective, cold.Objective, seeded, sol.Warm)
	}
	if sol.Warm && !seeded {
		t.Fatal("warm solve from a refused seed")
	}
	return sol
}

// TestSeedBasisReachesColdObjective: a solve from a seeded basis reports
// the cold solve's status and objective, on the dense inverse
// (m < luAutoRows) and on LU factors. Random seeds on random bounded LPs
// may repair warm, be refused or fall back cold. A routing's seed on a
// BL-SPM-shaped LP is dual feasible by construction and must repair
// warm, however many capacity rows the routing overloads.
func TestSeedBasisReachesColdObjective(t *testing.T) {
	for _, tc := range []struct {
		name          string
		mMin, mSpan   int
		nMin, nSpan   int
		dMin, dMax    float64
		trials, first int64
	}{
		{"dense", 4, 12, 4, 25, 0.1, 0.8, 40, 5100},
		{"factorized", luAutoRows, 40, luAutoRows, 80, 0.02, 0.05, 12, 5300},
	} {
		t.Run("random-"+tc.name, func(t *testing.T) {
			hits := 0
			for trial := int64(0); trial < tc.trials; trial++ {
				seed := tc.first + trial
				shape := stats.NewRNG(seed)
				m := tc.mMin + shape.Intn(tc.mSpan)
				n := tc.nMin + shape.Intn(tc.nSpan)
				density := shape.Uniform(tc.dMin, tc.dMax)
				p := randomBoundedLP(t, stats.NewRNG(seed+1), m, n, density)
				q := randomBoundedLP(t, stats.NewRNG(seed+1), m, n, density)
				rows, cols := randomSeed(p, stats.NewRNG(seed+2), 1+shape.Intn(m))
				if solveSeeded(t, p, q, rows, cols).Warm {
					hits++
				}
			}
			t.Logf("%d of %d random seeds repaired warm", hits, tc.trials)
		})
	}
	for _, tc := range []struct {
		name            string
		requests, links int
	}{
		{"dense", 20, 12},
		{"factorized", 150, 30},
	} {
		t.Run("routing-"+tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				p, rows, cols := routingLP(t, stats.NewRNG(seed), tc.requests, tc.links)
				q, _, _ := routingLP(t, stats.NewRNG(seed), tc.requests, tc.links)
				if sol := solveSeeded(t, p, q, rows, cols); !sol.Warm || sol.Factorized != (tc.name == "factorized") {
					t.Fatalf("seed %d: warm %v factorized %v, want a warm %s solve", seed, sol.Warm, sol.Factorized, tc.name)
				}
			}
		})
	}
}

// TestSeedBasisRefused: seeds the basis cannot hold are refused with an
// empty handle, and the solve from it is the cold solve bit for bit.
func TestSeedBasisRefused(t *testing.T) {
	// x and y have identical columns, so seeding both is singular. pad
	// adds rows that cannot bind, to reach the factorized basis.
	build := func(pad int, extra Rel) *Problem {
		p := NewProblem(Maximize)
		x := mustVar(t, p, 3, 0, 4, "x")
		y := mustVar(t, p, 2, 0, 4, "y")
		z := mustVar(t, p, 1, 0, 4, "z")
		c1 := mustCon(t, p, LE, 5, "c1")
		c2 := mustCon(t, p, LE, 7, "c2")
		for _, v := range []int{x, y} {
			mustTerm(t, p, c1, v, 1)
			mustTerm(t, p, c2, v, 2)
		}
		mustTerm(t, p, c2, z, 1)
		if extra != 0 {
			mustTerm(t, p, mustCon(t, p, extra, 1, "extra"), z, 1)
		}
		for i := 0; i < pad; i++ {
			mustTerm(t, p, mustCon(t, p, LE, 1e6, "pad"), z, 1)
		}
		return p
	}
	cases := []struct {
		name       string
		pad        int
		extra      Rel
		rows, cols []int
	}{
		{"singular", 0, 0, []int{0, 1}, []int{0, 1}},
		{"singular-factorized", luAutoRows, 0, []int{0, 1}, []int{0, 1}},
		{"equality-row", 0, EQ, []int{0}, []int{0}},
		{"negated-slack", 0, GE, []int{0}, []int{0}},
		{"row-out-of-range", 0, 0, []int{2}, []int{0}},
		{"negative-row", 0, 0, []int{-1}, []int{0}},
		{"column-out-of-range", 0, 0, []int{0}, []int{3}},
		{"negative-column", 0, 0, []int{0}, []int{-1}},
		{"repeated-row", 0, 0, []int{0, 0}, []int{0, 2}},
		{"repeated-column", 0, 0, []int{0, 1}, []int{2, 2}},
		{"length-mismatch", 0, 0, []int{0, 1}, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := build(tc.pad, tc.extra)
			basis := p.SeedBasis(tc.rows, tc.cols)
			if basis.Valid() {
				t.Fatal("seed accepted, want refused")
			}
			got, err := p.Solve(Options{Warm: basis})
			if err != nil {
				t.Fatal(err)
			}
			want, err := build(tc.pad, tc.extra).Solve(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Warm || got.Status != want.Status || got.Objective != want.Objective || got.Iters != want.Iters {
				t.Fatalf("solve from refused seed: warm %v %v/%v/%d, want cold %v/%v/%d",
					got.Warm, got.Status, got.Objective, got.Iters, want.Status, want.Objective, want.Iters)
			}
			for j := range want.X {
				if got.X[j] != want.X[j] {
					t.Fatalf("x[%d] %v != cold %v", j, got.X[j], want.X[j])
				}
			}
			if !basis.Valid() {
				t.Fatal("cold solve did not capture into the refused handle")
			}
		})
	}
	// The same problem takes a nonsingular seed of x and z warm.
	p := build(0, 0)
	basis := p.SeedBasis([]int{0, 1}, []int{0, 2})
	if !basis.Valid() {
		t.Fatal("nonsingular seed refused")
	}
	sol, err := p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Warm || sol.Status != StatusOptimal || math.Abs(sol.Objective-10.5) > 1e-9 {
		t.Fatalf("seeded solve: warm %v status %v objective %v, want warm optimal 10.5", sol.Warm, sol.Status, sol.Objective)
	}
}
