package lp

import (
	"math"
	"testing"
)

// bealeProblem is the classic cycling-prone instance (Beale); its
// optimum is -0.05 in Minimize sense.
func bealeProblem(t *testing.T) *Problem {
	t.Helper()
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
	return d.build()
}

// degenerateChain maximizes Σx over x_j ≤ x_{j+1}, x_n ≤ 1: every
// pivot but the last is degenerate (the rhs is all zeros), so
// 40-pivot streaks demote it to the hashed tie order and then to
// Bland's rule. Optimum n.
func degenerateChain(t *testing.T, n int) *Problem {
	t.Helper()
	d := newDraft(t, Maximize)
	for j := 0; j < n; j++ {
		d.variable(1, 0, math.Inf(1), "x")
	}
	for j := 0; j+1 < n; j++ {
		r := d.row(LE, 0, "chain")
		d.term(r, j, 1)
		d.term(r, j+1, -1)
	}
	d.term(d.row(LE, 1, "cap"), n-1, 1)
	return d.build()
}

// hallMcKinnon is the two-row cycling example of Hall and McKinnon
// (2004), with a cap row Σx ≤ 1 added to bound it. Dantzig's rule
// cycles on it through six bases, and its ratio tests never tie, so no
// tie-break can end the cycle: only Bland's entering rule does.
// Optimum −0.875.
func hallMcKinnon(t *testing.T) *Problem {
	t.Helper()
	d := newDraft(t, Minimize)
	for _, c := range []float64{-2.3, -2.15, 13.55, 0.4} {
		d.variable(c, 0, math.Inf(1), "x")
	}
	for _, row := range [][]float64{{0.4, 0.2, -1.4, -0.2}, {-7.8, -1.4, 7.8, 0.4}, {1, 1, 1, 1}} {
		rhs := 0.0
		if row[0] == 1 {
			rhs = 1
		}
		r := d.row(LE, rhs, "row")
		for j, a := range row {
			d.term(r, j, a)
		}
	}
	return d.build()
}

// TestCyclingInstanceAllPricings drives every rung of the anti-cycling
// ladder on both basis representations under default options — no
// option names a rung, so these instances are its termination
// reproducers: Beale's cycling instance must reach its known optimum
// with no demotion, the degenerate chain through at least one, and
// Hall and McKinnon's instance only through both, down to Bland's rule.
func TestCyclingInstanceAllPricings(t *testing.T) {
	for _, c := range []struct {
		name  string
		basis basisKind
	}{{"inverse", basisInverse}, {"lu", basisLU}} {
		for _, inst := range []struct {
			name      string
			p         *Problem
			want      float64
			demotions int64
		}{
			{"beale", bealeProblem(t), -0.05, 0},
			{"chain", degenerateChain(t, 100), 100, 1},
			{"hall-mckinnon", hallMcKinnon(t), -0.875, 2},
		} {
			before := cPricingFallbacks.Value()
			sol, err := inst.p.Solve(Options{basis: c.basis})
			if err != nil {
				t.Fatalf("%s/%s: %v", inst.name, c.name, err)
			}
			if sol.Status != StatusOptimal {
				t.Fatalf("%s/%s: status %v, want optimal", inst.name, c.name, sol.Status)
			}
			if sol.Factorized != (c.basis == basisLU) {
				t.Fatalf("%s/%s: Factorized = %v", inst.name, c.name, sol.Factorized)
			}
			if math.Abs(sol.Objective-inst.want) > 1e-6 {
				t.Fatalf("%s/%s: objective %v, want %v", inst.name, c.name, sol.Objective, inst.want)
			}
			if got := cPricingFallbacks.Value() - before; got < inst.demotions {
				t.Fatalf("%s/%s: %d demotions, want at least %d", inst.name, c.name, got, inst.demotions)
			}
		}
	}
}
