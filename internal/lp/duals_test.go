package lp

import (
	"math"
	"testing"

	"metis/internal/stats"
)

func TestDualsClassicMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → obj 36.
	// Known duals: 0, 3/2, 1.
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
	want := []float64{0, 1.5, 1}
	for i, w := range want {
		if math.Abs(sol.Duals[i]-w) > 1e-6 {
			t.Errorf("dual[%d] = %v, want %v", i, sol.Duals[i], w)
		}
	}
}

func TestDualsClassicMin(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x + 2y >= 6 → obj 10, duals 1, 1.
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
	for i := 0; i < 2; i++ {
		if math.Abs(sol.Duals[i]-1) > 1e-6 {
			t.Errorf("dual[%d] = %v, want 1", i, sol.Duals[i])
		}
	}
}

// TestStrongDualityRandom checks b·y == objective on random bounded
// max-LPs without finite variable bounds (so no bound multipliers enter
// the duality identity).
func TestStrongDualityRandom(t *testing.T) {
	rng := stats.NewRNG(53)
	for trial := 0; trial < 30; trial++ {
		nv := 2 + rng.Intn(5)
		nc := 2 + rng.Intn(5)
		d := newDraft(t, Maximize)
		for j := 0; j < nv; j++ {
			d.variable(rng.Uniform(0.1, 3), 0, math.Inf(1), "x")
		}
		rhs := make([]float64, nc)
		for i := 0; i < nc; i++ {
			rhs[i] = rng.Uniform(1, 10)
			row := d.row(LE, rhs[i], "c")
			for j := 0; j < nv; j++ {
				// Strictly positive coefficients keep the LP bounded.
				d.term(row, j, rng.Uniform(0.2, 2))
			}
		}
		p := d.build()
		sol := solveOptimal(t, p)
		var dualObj float64
		for i := 0; i < nc; i++ {
			if sol.Duals[i] < -1e-9 {
				t.Fatalf("trial %d: max-LP LE dual %v negative", trial, sol.Duals[i])
			}
			dualObj += sol.Duals[i] * rhs[i]
		}
		if math.Abs(dualObj-sol.Objective) > 1e-6*(1+math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: strong duality broken: dual %v vs primal %v", trial, dualObj, sol.Objective)
		}
	}
}

// TestDualsShadowPrice verifies the ∂obj/∂rhs interpretation by finite
// differences.
func TestDualsShadowPrice(t *testing.T) {
	build := func(cap float64) *Problem {
		d := newDraft(t, Maximize)
		x := d.variable(2, 0, math.Inf(1), "x")
		y := d.variable(1, 0, math.Inf(1), "y")
		c1 := d.row(LE, cap, "cap")
		d.term(c1, x, 1)
		d.term(c1, y, 1)
		d.term(d.row(LE, 3, "xcap"), x, 1)
		return d.build()
	}
	base := solveOptimal(t, build(5))
	bumped := solveOptimal(t, build(5.5))
	fd := (bumped.Objective - base.Objective) / 0.5
	if math.Abs(base.Duals[0]-fd) > 1e-6 {
		t.Fatalf("dual %v != finite difference %v", base.Duals[0], fd)
	}
}
