package lp

import (
	"math"
	"slices"
	"testing"

	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/stats"
	"metis/internal/wan"
)

// spmCutLP builds the SPM relaxation of a B4 instance with k requests
// from generator seed — accept rows ≤ 1, one capacity row per loaded
// (link, slot), bandwidth columns priced at −price — plus one row
// Σ_{j: e∈P_ij} x_ij − c_e ≤ 0 per request and per link on any of its
// paths. Those rows repeat the capacity rows' columns with unit
// coefficients, so many of them are nearly parallel. They are added in
// request order and, within a request, by ascending link id; a non-nil
// shuffle permutes them first.
func spmCutLP(t testing.TB, k int, seed int64, shuffle *stats.RNG) *Problem {
	t.Helper()
	const slots, pathsPerRequest = 12, 3
	net := wan.B4()
	gen, err := demand.NewGenerator(net, demand.GeneratorConfig{
		Slots:    slots,
		RateLo:   demand.DefaultRateLo,
		RateHi:   demand.DefaultRateHi,
		MarkupLo: demand.DefaultMarkupLo,
		MarkupHi: demand.DefaultMarkupHi,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.GenerateN(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(net, slots, reqs, pathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	d := newDraft(t, Maximize)
	xCols := make([][]int, k)
	for i := range xCols {
		for range inst.NumPaths(i) {
			xCols[i] = append(xCols[i], d.variable(inst.Request(i).Value, 0, 1, "x"))
		}
	}
	cCols := make([]int, net.NumLinks())
	for e := range cCols {
		cCols[e] = d.variable(-net.Link(e).Price, 0, math.Inf(1), "c")
	}
	for i := range k {
		row := d.row(LE, 1, "accept")
		for _, j := range xCols[i] {
			d.term(row, j, 1)
		}
	}
	for e := range cCols {
		for t := range slots {
			row := -1
			for i := range k {
				r := inst.Request(i)
				if t < r.Start || t > r.End {
					continue
				}
				for pj, j := range xCols[i] {
					if !slices.Contains(inst.Path(i, pj).Links, e) {
						continue
					}
					if row < 0 {
						row = d.row(LE, 0, "cap")
					}
					d.term(row, j, r.Rate)
				}
			}
			if row >= 0 {
				d.term(row, cCols[e], -1)
			}
		}
	}

	type cut struct{ i, e int }
	var cuts []cut
	for i := range k {
		var links []int
		for pj := range xCols[i] {
			links = append(links, inst.Path(i, pj).Links...)
		}
		slices.Sort(links)
		for _, e := range slices.Compact(links) {
			cuts = append(cuts, cut{i, e})
		}
	}
	if shuffle != nil {
		perm := shuffle.Perm(len(cuts))
		shuffled := make([]cut, len(cuts))
		for a, b := range perm {
			shuffled[a] = cuts[b]
		}
		cuts = shuffled
	}
	for _, c := range cuts {
		row := d.row(LE, 0, "cut")
		for pj, j := range xCols[c.i] {
			if slices.Contains(inst.Path(c.i, pj).Links, c.e) {
				d.term(row, j, 1)
			}
		}
		d.term(row, cCols[c.e], -1)
	}
	return d.build()
}

// TestSolveNearlyParallelRows is the LP that once ended in
// StatusNumeric: 4311 rows, most of them at a zero right-hand side, and
// 3355 of them cut rows nearly parallel to the capacity rows. On its
// degenerate origin the Bland rung's smallest-index tie-break took a
// pivot of 1.3e-9 beside max|w| = 3.3e4, and the basis that made was
// singular. The solve must reach an optimum that an independent
// certificate accepts.
func TestSolveNearlyParallelRows(t *testing.T) {
	if raceEnabled {
		t.Skip("about 10x slower under the race detector; the solve starts no goroutine")
	}
	p := spmCutLP(t, 500, 6, nil)
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v after %d iterations, want optimal", sol.Status, sol.Iters)
	}
	certifyOptimal(t, p, sol)
}

// certifyOptimal checks sol against p without trusting the solver:
// every row and bound holds within 1e-7 scaled, the duals are feasible
// for the Lagrangian dual, and the dual objective equals the primal
// one within 1e-6 relative. Weak duality makes that a proof of
// optimality.
func certifyOptimal(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	m, n := len(p.rel), len(p.obj)
	if len(sol.X) != n || len(sol.Duals) != m {
		t.Fatalf("solution has %d values and %d duals for %d columns and %d rows", len(sol.X), len(sol.Duals), n, m)
	}
	for j, x := range sol.X {
		if x < p.lo[j]-1e-7*(1+math.Abs(p.lo[j])) || x > p.hi[j]+1e-7*(1+math.Abs(p.hi[j])) {
			t.Fatalf("x[%d] = %g outside [%g, %g]", j, x, p.lo[j], p.hi[j])
		}
	}
	mat := &p.matrix
	act := make([]float64, m)
	scale := make([]float64, m)
	for j := range n {
		for q := mat.colPtr[j]; q < mat.colPtr[j+1]; q++ {
			act[mat.rows[q]] += mat.vals[q] * sol.X[j]
			scale[mat.rows[q]] += math.Abs(mat.vals[q] * sol.X[j])
		}
	}
	for i := range m {
		lim := 1e-7 * (1 + math.Abs(p.rhs[i]) + scale[i])
		if (p.rel[i] != GE && act[i] > p.rhs[i]+lim) || (p.rel[i] != LE && act[i] < p.rhs[i]-lim) {
			t.Fatalf("row %d: activity %g violates rel %d rhs %g", i, act[i], p.rel[i], p.rhs[i])
		}
	}
	primal := p.ObjectiveValue(sol.X)
	if math.Abs(primal-sol.Objective) > 1e-9*(1+math.Abs(primal)) {
		t.Fatalf("reported objective %.12g, c·x = %.12g", sol.Objective, primal)
	}

	// In maximization form (negate a minimization), the duals y must be
	// ≥ 0 on ≤ rows and ≤ 0 on ≥ rows, and the dual function
	// b·y + Σ_j max(d_j·lo_j, d_j·hi_j) with d = c − Aᵀy bounds every
	// primal value from above; it is finite only if no column with an
	// infinite upper bound prices out positive.
	sgn := 1.0
	if p.sense == Minimize {
		sgn = -1
	}
	const dualTol = 1e-7
	dual := 0.0
	for i, yi := range sol.Duals {
		y := sgn * yi
		if (p.rel[i] == LE && y < -dualTol) || (p.rel[i] == GE && y > dualTol) {
			t.Fatalf("row %d (rel %d): dual %g has the wrong sign", i, p.rel[i], yi)
		}
		dual += p.rhs[i] * y
	}
	for j := range n {
		d := sgn * p.obj[j]
		for q := mat.colPtr[j]; q < mat.colPtr[j+1]; q++ {
			d -= sgn * sol.Duals[mat.rows[q]] * mat.vals[q]
		}
		switch {
		case d <= 0:
			dual += d * p.lo[j]
		case math.IsInf(p.hi[j], 1):
			if d > dualTol {
				t.Fatalf("column %d: reduced cost %g > 0 with no upper bound", j, d)
			}
			dual += d * p.lo[j]
		default:
			dual += d * p.hi[j]
		}
	}
	if obj := sgn * primal; math.Abs(dual-obj) > 1e-6*(1+math.Abs(obj)) {
		t.Fatalf("dual objective %.12g, primal %.12g", sgn*dual, primal)
	}
}

// TestBadlyScaledStep keeps the ratio test's step honest on a badly
// scaled direction. The first row limits x at 1000 with a coefficient
// of 1e-3, far below 1e-8 of the second row's −1e6, so an eta update
// would refuse it as a pivot, and a ratio test that refused it too
// would call the LP unbounded (no third row) or step past it to 2000
// (third row). The pivot must be taken, and the refactorization that
// the refused eta forces keeps the basis exact.
func TestBadlyScaledStep(t *testing.T) {
	for _, basis := range []basisKind{basisInverse, basisLU} {
		for _, third := range []bool{false, true} {
			d := newDraft(t, Maximize)
			x := d.variable(1, 0, math.Inf(1), "x")
			d.term(d.row(LE, 1, "limit"), x, 1e-3)
			d.term(d.row(LE, 1, "steep"), x, -1e6)
			if third {
				d.term(d.row(LE, 2000, "loose"), x, 1)
			}
			p := d.build()
			sol, err := p.Solve(Options{basis: basis})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != StatusOptimal || math.Abs(sol.Objective-1000) > 1e-9 {
				t.Fatalf("basis %d, third row %v: %v %v, want optimal 1000", basis, third, sol.Status, sol.Objective)
			}
			certifyOptimal(t, p, sol)
		}
	}
}

// TestSingularPivotRejected drives a pivot whose basis does not factor:
// column b is basic-able only through a 2e-12 entry in the row that
// column a, seeded basic at zero, covers with 1e-3. Entering b there is
// the ratio test's only choice (a degenerate step), its 2e-9 pivot is
// too small for an eta, and the refactorization finds the basis
// singular. The solve must reject that pivot, keep a, let c make the
// progress b could not, and finish on the warm path with the optimum.
// The 126 empty rows put the basis on the LU path.
func TestSingularPivotRejected(t *testing.T) {
	d := newDraft(t, Maximize)
	a := d.variable(0, 0, math.Inf(1), "a")
	b := d.variable(1, 0, math.Inf(1), "b")
	c := d.variable(1, 0, math.Inf(1), "c")
	r0 := d.row(LE, 0, "tiny")
	d.term(r0, a, 1e-3)
	d.term(r0, b, 2e-12)
	r1 := d.row(LE, 1, "share")
	d.term(r1, b, 1)
	d.term(r1, c, 1)
	for range luAutoRows - 2 {
		d.row(LE, 1, "empty")
	}
	p := d.build()
	seed := p.SeedBasis([]int{r0}, []int{a})
	if !seed.Valid() {
		t.Fatal("seed refused")
	}
	before := cLUSingular.Value()
	sol, err := p.Solve(Options{Warm: seed})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !sol.Warm || !sol.Factorized || math.Abs(sol.Objective-1) > 1e-9 {
		t.Fatalf("%v objective %v (warm %v, factorized %v), want a warm factorized optimum 1", sol.Status, sol.Objective, sol.Warm, sol.Factorized)
	}
	if cLUSingular.Value() == before {
		t.Fatal("no singular refactorization: the pivot this test exists for was not taken")
	}
	certifyOptimal(t, p, sol)
}

// TestDualRejectedPivotHandsOver is TestSingularPivotRejected's case
// for the dual repair: after SetRHS pushes a below zero, b is the only
// column that can lift it, and its 2e-9 pivot makes a basis that does
// not factor. The dual simplex cannot skip b without losing dual
// feasibility, so the warm repair must hand over to the cold solve,
// which proves the LP infeasible (b ≤ 1 caps 2e-12·b far below the
// 1e-6 that a ≥ 0 needs).
func TestDualRejectedPivotHandsOver(t *testing.T) {
	d := newDraft(t, Minimize)
	a := d.variable(0, 0, math.Inf(1), "a")
	b := d.variable(1, 0, math.Inf(1), "b")
	r0 := d.row(LE, 0, "tiny")
	d.term(r0, a, 1e-3)
	d.term(r0, b, -2e-12)
	d.term(d.row(LE, 1, "cap"), b, 1)
	for range luAutoRows - 2 {
		d.row(LE, 1, "empty")
	}
	p := d.build()
	seed := p.SeedBasis([]int{r0}, []int{a})
	if !seed.Valid() {
		t.Fatal("seed refused")
	}
	if err := p.SetRHS(r0, -1e-6); err != nil {
		t.Fatal(err)
	}
	singular, handedOver := cLUSingular.Value(), cWarmFallbacks.Value()
	sol, err := p.Solve(Options{Warm: seed})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible || sol.Warm {
		t.Fatalf("%v (warm %v), want infeasible from the cold solve", sol.Status, sol.Warm)
	}
	if cLUSingular.Value() == singular || cWarmFallbacks.Value() == handedOver {
		t.Fatal("the dual repair did not reject b's pivot and hand over")
	}
}
