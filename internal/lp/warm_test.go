package lp

import (
	"math"
	"slices"
	"testing"

	"metis/internal/stats"
)

// TestSetRHSKeepsCSCCache: SetRHS mirrors the SetBounds contract — the
// constraint matrix is left as it was and a captured basis stays warm,
// yet the new right-hand side takes effect on the next solve.
func TestSetRHSKeepsCSCCache(t *testing.T) {
	d := newDraft(t, Maximize)
	x := d.variable(1, 0, 10, "x")
	c := d.row(LE, 4, "cap")
	d.term(c, x, 1)
	p := d.build()
	basis := NewBasis()
	if sol, err := p.Solve(Options{Warm: basis}); err != nil || sol.Objective != 4 {
		t.Fatalf("objective %v (%v), want 4", sol.Objective, err)
	}
	before := d.build().matrix
	if err := p.SetRHS(c, 7); err != nil {
		t.Fatal(err)
	}
	if got := p.rhs[c]; got != 7 {
		t.Fatalf("rhs[c] = %v, want 7", got)
	}
	sol, err := p.Solve(Options{Warm: basis})
	if err != nil || !sol.Warm || sol.Objective != 7 {
		t.Fatalf("after SetRHS: objective %v (warm %v, %v), want a warm 7", sol.Objective, sol.Warm, err)
	}
	if !slices.Equal(p.matrix.colPtr, before.colPtr) || !slices.Equal(p.matrix.rows, before.rows) || !slices.Equal(p.matrix.vals, before.vals) {
		t.Fatal("SetRHS or the re-solve changed the constraint matrix")
	}
	if err := p.SetRHS(-1, 1); err == nil {
		t.Fatal("SetRHS(-1) succeeded, want error")
	}
	if err := p.SetRHS(c, math.NaN()); err == nil {
		t.Fatal("SetRHS(NaN) succeeded, want error")
	}
}

// TestWarmBasicReuse: the canonical warm-start round trip — cold solve
// captures a basis, an RHS shrink is repaired by dual simplex, and the
// objective matches a cold solve of the modified problem.
func TestWarmBasicReuse(t *testing.T) {
	build := func() (*Problem, int, int, int) {
		d := newDraft(t, Maximize)
		x := d.variable(3, 0, 10, "x")
		y := d.variable(2, 0, 10, "y")
		c1 := d.row(LE, 8, "c1")
		c2 := d.row(LE, 9, "c2")
		d.term(c1, x, 1)
		d.term(c1, y, 1)
		d.term(c2, x, 2)
		d.term(c2, y, 1)
		p := d.build()
		return p, x, y, c2
	}
	p, _, _, c2 := build()
	basis := NewBasis()
	sol, err := p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || sol.Warm {
		t.Fatalf("first solve: status %v warm %v, want cold optimal", sol.Status, sol.Warm)
	}
	if !basis.Valid() {
		t.Fatal("basis not captured by cold solve")
	}
	// Shrink a binding capacity; the old vertex goes primal infeasible.
	if err := p.SetRHS(c2, 5); err != nil {
		t.Fatal(err)
	}
	warm, err := p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	q, _, _, qc2 := build()
	if err := q.SetRHS(qc2, 5); err != nil {
		t.Fatal(err)
	}
	cold := solveOptimal(t, q)
	if warm.Status != StatusOptimal {
		t.Fatalf("warm status %v, want optimal", warm.Status)
	}
	if !warm.Warm {
		t.Fatal("solve did not take the warm path")
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("warm objective %v != cold %v", warm.Objective, cold.Objective)
	}
}

// TestWarmInfeasibleAndRecovery: dual simplex must prove infeasibility
// exactly (matching cold), and the retained basis must stay usable when
// the offending change is reverted.
func TestWarmInfeasibleAndRecovery(t *testing.T) {
	d := newDraft(t, Minimize)
	x := d.variable(1, 0, 1, "x")
	y := d.variable(2, 0, 1, "y")
	serve := d.row(EQ, 1, "serve")
	d.term(serve, x, 1)
	d.term(serve, y, 1)
	basis := NewBasis()
	p := d.build()
	if _, err := p.Solve(Options{Warm: basis}); err != nil {
		t.Fatal(err)
	}
	// Fix both variables to zero: serve row cannot be met.
	for _, j := range []int{x, y} {
		if err := p.SetBounds(j, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	// Reactivate and re-solve warm: same optimum as the original.
	for _, j := range []int{x, y} {
		if err := p.SetBounds(j, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	sol, err = p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-1) > 1e-9 {
		t.Fatalf("after recovery: status %v objective %v, want optimal 1", sol.Status, sol.Objective)
	}
}

// TestWarmStaleBasisFallsBackCold: rebuilding the problem (Reset) makes
// a retained basis stale, so it must be silently discarded and the
// solve must still be correct.
func TestWarmStaleBasisFallsBackCold(t *testing.T) {
	d := newDraft(t, Maximize)
	x := d.variable(1, 0, 4, "x")
	c := d.row(LE, 10, "cap")
	d.term(c, x, 1)
	basis := NewBasis()
	p := d.build()
	if _, err := p.Solve(Options{Warm: basis}); err != nil {
		t.Fatal(err)
	}
	y := d.variable(2, 0, 4, "y")
	d.term(c, y, 1)
	d.into(p)
	sol, err := p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warm {
		t.Fatal("stale basis was not discarded")
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-12) > 1e-9 {
		t.Fatalf("status %v objective %v, want optimal 12 (x=4, y=4)", sol.Status, sol.Objective)
	}
	// The cold fallback recaptures: the next delta solve is warm again.
	if err := p.SetBounds(y, 0, 2); err != nil {
		t.Fatal(err)
	}
	sol, err = p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Warm || math.Abs(sol.Objective-8) > 1e-9 {
		t.Fatalf("recapture: warm %v objective %v, want warm 8 (x=4, y=2)", sol.Warm, sol.Objective)
	}
}

// TestBasisCloneIndependent: a cloned handle (branch & bound child) can
// pivot freely without corrupting the parent's basis.
func TestBasisCloneIndependent(t *testing.T) {
	d := newDraft(t, Maximize)
	x := d.variable(3, 0, 1, "x")
	y := d.variable(2, 0, 1, "y")
	c := d.row(LE, 1.5, "cap")
	d.term(c, x, 1)
	d.term(c, y, 1)
	parent := NewBasis()
	p := d.build()
	root, err := p.Solve(Options{Warm: parent})
	if err != nil {
		t.Fatal(err)
	}
	// The next solve rewrites p's Solution: keep what is compared.
	rootObj := root.Objective

	child := parent.Clone()
	if err := p.SetBounds(x, 0, 0); err != nil { // branch x = 0
		t.Fatal(err)
	}
	childSol, err := p.Solve(Options{Warm: child})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(childSol.Objective-2) > 1e-9 {
		t.Fatalf("child objective %v, want 2 (y=1)", childSol.Objective)
	}

	// Restore and re-solve from the untouched parent handle.
	if err := p.SetBounds(x, 0, 1); err != nil {
		t.Fatal(err)
	}
	parentSol, err := p.Solve(Options{Warm: parent})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(parentSol.Objective-rootObj) > 1e-9 {
		t.Fatalf("parent objective %v after child pivots, want %v", parentSol.Objective, rootObj)
	}
	if !parentSol.Warm {
		t.Fatal("parent handle no longer warm after child solves")
	}
	// Clone of an invalid handle is a fresh empty one.
	empty := NewBasis().Clone()
	if empty.Valid() {
		t.Fatal("clone of empty basis claims validity")
	}
}

// perturbation is one reproducible mutation applied identically to the
// warm-tracked problem and a cold control copy.
type perturbation struct {
	kind int // 0: variable bound change, 1: rhs change
	idx  int
	lo   float64
	hi   float64
	rhs  float64
}

func applyPerturbation(t *testing.T, p *Problem, pe perturbation) {
	t.Helper()
	var err error
	if pe.kind == 0 {
		err = p.SetBounds(pe.idx, pe.lo, pe.hi)
	} else {
		err = p.SetRHS(pe.idx, pe.rhs)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmColdEquivalenceRandom is the property test required by the
// warm-start contract: across randomized bounded LPs and sequences of
// bound/RHS perturbations, a warm-started solve must report the same
// status and the same objective (±1e-9) as a cold solve of the
// identical problem. The optimal vertex is allowed to differ.
func TestWarmColdEquivalenceRandom(t *testing.T) {
	warmHits := 0
	solves := 0
	for trial := 0; trial < 20; trial++ {
		seed := int64(7000 + trial)
		shape := stats.NewRNG(seed)
		m := 4 + shape.Intn(12)
		n := 4 + shape.Intn(25)
		density := shape.Uniform(0.1, 0.8)
		p := randomBoundedLP(t, stats.NewRNG(seed+1), m, n, density)
		q := randomBoundedLP(t, stats.NewRNG(seed+1), m, n, density)

		basis := NewBasis()
		if _, err := p.Solve(Options{Warm: basis}); err != nil {
			t.Fatal(err)
		}
		pert := stats.NewRNG(seed + 2)
		for round := 0; round < 4; round++ {
			for j := 0; j < n; j++ {
				if pert.Float64() < 0.25 {
					pe := perturbation{kind: 0, idx: j}
					switch pert.Intn(3) {
					case 0: // deactivate
						pe.lo, pe.hi = 0, 0
					case 1: // tighten or relax upper bound
						pe.lo, pe.hi = 0, pert.Uniform(0.2, 4)
					default: // raise lower bound into the box
						pe.hi = pert.Uniform(0.5, 2)
						pe.lo = pert.Uniform(0, 0.5*pe.hi)
					}
					applyPerturbation(t, p, pe)
					applyPerturbation(t, q, pe)
				}
			}
			for i := 0; i < m; i++ {
				if pert.Float64() < 0.3 {
					pe := perturbation{kind: 1, idx: i, rhs: pert.Uniform(0.3, 7)}
					applyPerturbation(t, p, pe)
					applyPerturbation(t, q, pe)
				}
			}

			warm, err := p.Solve(Options{Warm: basis})
			if err != nil {
				t.Fatalf("trial %d round %d warm: %v", trial, round, err)
			}
			cold, err := q.Solve(Options{})
			if err != nil {
				t.Fatalf("trial %d round %d cold: %v", trial, round, err)
			}
			solves++
			if warm.Warm {
				warmHits++
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d round %d: warm status %v != cold %v (warm path: %v)",
					trial, round, warm.Status, cold.Status, warm.Warm)
			}
			if cold.Status == StatusOptimal {
				tol := 1e-9 * (1 + math.Abs(cold.Objective))
				if math.Abs(warm.Objective-cold.Objective) > tol {
					t.Fatalf("trial %d round %d: warm objective %.15g != cold %.15g (Δ=%g, warm path: %v)",
						trial, round, warm.Objective, cold.Objective,
						warm.Objective-cold.Objective, warm.Warm)
				}
			}
		}
	}
	if warmHits == 0 {
		t.Fatal("warm path never engaged across all trials")
	}
	t.Logf("warm path engaged on %d/%d perturbed solves", warmHits, solves)
}

// TestWarmColdFactorizedEquivalence reruns the randomized warm-vs-cold
// parity drill entirely on the LU-factorized basis, with the dense
// inverse as a third oracle: after every perturbation round, the warm
// factorized repair, a cold factorized solve and a cold dense solve
// must agree on status, and at optimality on the objective within
// relative 1e-9. Every failure message carries the trial seed; rebuild
// the instance with randomBoundedLP(stats.NewRNG(seed+1), ...) to
// replay.
func TestWarmColdFactorizedEquivalence(t *testing.T) {
	warmHits := 0
	for trial := 0; trial < 20; trial++ {
		seed := int64(9100 + trial)
		shape := stats.NewRNG(seed)
		m := 4 + shape.Intn(12)
		n := 4 + shape.Intn(25)
		density := shape.Uniform(0.1, 0.8)
		p := randomBoundedLP(t, stats.NewRNG(seed+1), m, n, density)
		q := randomBoundedLP(t, stats.NewRNG(seed+1), m, n, density)
		r := randomBoundedLP(t, stats.NewRNG(seed+1), m, n, density)

		basis := NewBasis()
		if _, err := p.Solve(Options{Warm: basis, basis: basisLU}); err != nil {
			t.Fatal(err)
		}
		pert := stats.NewRNG(seed + 2)
		for round := 0; round < 4; round++ {
			for j := 0; j < n; j++ {
				if pert.Float64() < 0.25 {
					pe := perturbation{kind: 0, idx: j}
					switch pert.Intn(3) {
					case 0:
						pe.lo, pe.hi = 0, 0
					case 1:
						pe.lo, pe.hi = 0, pert.Uniform(0.2, 4)
					default:
						pe.hi = pert.Uniform(0.5, 2)
						pe.lo = pert.Uniform(0, 0.5*pe.hi)
					}
					applyPerturbation(t, p, pe)
					applyPerturbation(t, q, pe)
					applyPerturbation(t, r, pe)
				}
			}
			for i := 0; i < m; i++ {
				if pert.Float64() < 0.3 {
					pe := perturbation{kind: 1, idx: i, rhs: pert.Uniform(0.3, 7)}
					applyPerturbation(t, p, pe)
					applyPerturbation(t, q, pe)
					applyPerturbation(t, r, pe)
				}
			}

			warm, err := p.Solve(Options{Warm: basis, basis: basisLU})
			if err != nil {
				t.Fatalf("seed %d round %d warm factorized: %v", seed, round, err)
			}
			coldF, err := q.Solve(Options{basis: basisLU})
			if err != nil {
				t.Fatalf("seed %d round %d cold factorized: %v", seed, round, err)
			}
			coldD, err := r.Solve(Options{basis: basisInverse})
			if err != nil {
				t.Fatalf("seed %d round %d cold dense-inverse: %v", seed, round, err)
			}
			if warm.Warm {
				warmHits++
			}
			if warm.Status != coldD.Status || coldF.Status != coldD.Status {
				t.Fatalf("seed %d round %d: status mismatch: warm-factorized=%v cold-factorized=%v cold-dense=%v (warm path: %v)",
					seed, round, warm.Status, coldF.Status, coldD.Status, warm.Warm)
			}
			if coldD.Status != StatusOptimal {
				continue
			}
			tol := 1e-9 * (1 + math.Abs(coldD.Objective))
			if math.Abs(warm.Objective-coldD.Objective) > tol {
				t.Fatalf("seed %d round %d: warm-factorized objective %.15g != cold-dense %.15g (Δ=%g, warm path: %v)",
					seed, round, warm.Objective, coldD.Objective,
					warm.Objective-coldD.Objective, warm.Warm)
			}
			if math.Abs(coldF.Objective-coldD.Objective) > tol {
				t.Fatalf("seed %d round %d: cold-factorized objective %.15g != cold-dense %.15g (Δ=%g)",
					seed, round, coldF.Objective, coldD.Objective,
					coldF.Objective-coldD.Objective)
			}
		}
	}
	if warmHits == 0 {
		t.Fatal("factorized warm path never engaged across all trials")
	}
}

// TestWarmNilBitIdentical: Options.Warm == nil must leave the cold path
// untouched — two fresh solves of the same problem, one built alongside
// a warm-capable one, produce byte-identical solutions.
func TestWarmNilBitIdentical(t *testing.T) {
	rng := stats.NewRNG(4242)
	for trial := 0; trial < 6; trial++ {
		m := 5 + rng.Intn(10)
		n := 5 + rng.Intn(20)
		seed := int64(100*trial + 11)
		p := randomBoundedLP(t, stats.NewRNG(seed), m, n, 0.4)
		q := randomBoundedLP(t, stats.NewRNG(seed), m, n, 0.4)
		a, err := p.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := q.Solve(Options{Warm: NewBasis()})
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != b.Status || a.Objective != b.Objective || a.Iters != b.Iters {
			t.Fatalf("trial %d: cold solve diverged with a capturing handle: %v/%v/%d vs %v/%v/%d",
				trial, a.Status, a.Objective, a.Iters, b.Status, b.Objective, b.Iters)
		}
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("trial %d: x[%d] %v != %v", trial, j, a.X[j], b.X[j])
			}
		}
	}
}
