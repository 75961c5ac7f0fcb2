package lp

import (
	"math"
	"testing"
)

// bealeProblem is the classic cycling-prone instance (Beale); its
// optimum is -0.05 in Minimize sense.
func bealeProblem(t *testing.T) *Problem {
	t.Helper()
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
	return p
}

// degenerateChain maximizes Σx over x_j ≤ x_{j+1}, x_n ≤ 1: every
// pivot but the last is degenerate (the rhs is all zeros), so the
// 40-pivot streak hands the plateau to Bland's rule. Optimum n.
func degenerateChain(t *testing.T, n int) *Problem {
	t.Helper()
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		mustVar(t, p, 1, 0, math.Inf(1), "x")
	}
	for j := 0; j+1 < n; j++ {
		r := mustCon(t, p, LE, 0, "chain")
		mustTerm(t, p, r, j, 1)
		mustTerm(t, p, r, j+1, -1)
	}
	mustTerm(t, p, mustCon(t, p, LE, 1, "cap"), n-1, 1)
	return p
}

// TestCyclingInstanceAllPricings drives both rungs of the pricing
// ladder on both basis representations under default options — no
// option names Bland's rule, so these instances are its termination
// reproducers: Beale's cycling instance must reach its known optimum,
// and the degenerate chain must reach its optimum through at least one
// demotion to Bland.
func TestCyclingInstanceAllPricings(t *testing.T) {
	for _, c := range []struct {
		name  string
		basis basisKind
	}{{"inverse", basisInverse}, {"lu", basisLU}} {
		for _, inst := range []struct {
			name      string
			p         *Problem
			want      float64
			demotions bool
		}{
			{"beale", bealeProblem(t), -0.05, false},
			{"chain", degenerateChain(t, 100), 100, true},
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
			if inst.demotions && cPricingFallbacks.Value() == before {
				t.Fatalf("%s/%s: never demoted to Bland", inst.name, c.name)
			}
		}
	}
}
