package lp

import (
	"testing"

	"metis/internal/obs"
)

// delta returns the change of the named obs metrics between snap and
// now.
func delta(snap map[string]float64, names ...string) map[string]float64 {
	now := obs.Snapshot()
	d := make(map[string]float64, len(names))
	for _, n := range names {
		d[n] = now[n] - snap[n]
	}
	return d
}

// TestMaxItersLimitCounted: a solve stopped by the iteration cap reports
// StatusIterLimit and bumps lp.iterlimit exactly once.
func TestMaxItersLimitCounted(t *testing.T) {
	dr := newDraft(t, Maximize)
	x := dr.variable(3, 0, 10, "x")
	y := dr.variable(2, 0, 10, "y")
	c1 := dr.row(LE, 8, "c1")
	c2 := dr.row(LE, 9, "c2")
	dr.term(c1, x, 1)
	dr.term(c1, y, 1)
	dr.term(c2, x, 2)
	dr.term(c2, y, 1)

	p := dr.build()
	snap := obs.Snapshot()
	sol, err := p.Solve(Options{maxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusIterLimit {
		t.Fatalf("status %v, want iteration-limit", sol.Status)
	}
	if sol.Iters != 1 {
		t.Fatalf("iters %d, want 1", sol.Iters)
	}
	d := delta(snap, "lp.solves", "lp.iterlimit", "lp.iters")
	if d["lp.solves"] != 1 || d["lp.iterlimit"] != 1 {
		t.Fatalf("counter deltas %v, want lp.solves=1 lp.iterlimit=1", d)
	}
	if d["lp.iters"] != 1 {
		t.Fatalf("lp.iters delta %v, want 1", d["lp.iters"])
	}

	// Without the cap the same problem solves to optimality and does not
	// touch lp.iterlimit.
	snap = obs.Snapshot()
	sol, err = p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("uncapped status %v, want optimal", sol.Status)
	}
	d = delta(snap, "lp.solves", "lp.iterlimit")
	if d["lp.solves"] != 1 || d["lp.iterlimit"] != 0 {
		t.Fatalf("uncapped counter deltas %v, want lp.solves=1 lp.iterlimit=0", d)
	}
}

var warmCounterNames = []string{
	"lp.warm.attempts", "lp.warm.hits", "lp.warm.stale",
	"lp.warm.stalls", "lp.warm.cold_fallbacks",
}

// warmTestProblem is the TestWarmBasicReuse fixture: two variables, two
// LE capacities, c2 binding at the optimum.
func warmTestProblem(t *testing.T) (*Problem, int) {
	t.Helper()
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
	return p, c2
}

// TestWarmHitCounted: the first solve of a fresh handle is a capture,
// not an attempt; a successful repair after an RHS delta counts as one
// attempt and one hit.
func TestWarmHitCounted(t *testing.T) {
	p, c2 := warmTestProblem(t)
	basis := NewBasis()

	snap := obs.Snapshot()
	if _, err := p.Solve(Options{Warm: basis}); err != nil {
		t.Fatal(err)
	}
	d := delta(snap, warmCounterNames...)
	for _, n := range warmCounterNames {
		if d[n] != 0 {
			t.Fatalf("capture solve moved %s by %v, want all warm counters unchanged (%v)", n, d[n], d)
		}
	}

	if err := p.SetRHS(c2, 5); err != nil {
		t.Fatal(err)
	}
	snap = obs.Snapshot()
	sol, err := p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Warm || sol.Status != StatusOptimal {
		t.Fatalf("warm %v status %v, want warm optimal", sol.Warm, sol.Status)
	}
	d = delta(snap, warmCounterNames...)
	want := map[string]float64{"lp.warm.attempts": 1, "lp.warm.hits": 1}
	for _, n := range warmCounterNames {
		if d[n] != want[n] {
			t.Fatalf("warm-hit counter deltas %v, want attempts=1 hits=1 rest 0", d)
		}
	}
}

// TestWarmStallCountsColdFallback: with maxIters=1 the dual repair
// cannot certify feasibility restoration, so the warm attempt stalls,
// invalidates the handle, and hands over to the cold path — visible as
// one attempt, one stall, one cold fallback, zero hits.
func TestWarmStallCountsColdFallback(t *testing.T) {
	p, c2 := warmTestProblem(t)
	basis := NewBasis()
	if _, err := p.Solve(Options{Warm: basis}); err != nil {
		t.Fatal(err)
	}
	if !basis.Valid() {
		t.Fatal("basis not captured")
	}
	if err := p.SetRHS(c2, 5); err != nil {
		t.Fatal(err)
	}

	snap := obs.Snapshot()
	sol, err := p.Solve(Options{Warm: basis, maxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warm {
		t.Fatal("stalled repair still returned a warm solution")
	}
	if basis.Valid() {
		t.Fatal("stalled repair left the handle valid")
	}
	d := delta(snap, warmCounterNames...)
	want := map[string]float64{
		"lp.warm.attempts": 1, "lp.warm.stalls": 1, "lp.warm.cold_fallbacks": 1,
	}
	for _, n := range warmCounterNames {
		if d[n] != want[n] {
			t.Fatalf("warm-stall counter deltas %v, want attempts=1 stalls=1 cold_fallbacks=1 rest 0", d)
		}
	}
}

// TestWarmStaleCounted: rebuilding the problem after capture makes the
// handle stale; the attempt is counted as stale plus cold fallback.
func TestWarmStaleCounted(t *testing.T) {
	dr := newDraft(t, Maximize)
	x := dr.variable(1, 0, 4, "x")
	c := dr.row(LE, 10, "cap")
	dr.term(c, x, 1)
	basis := NewBasis()
	p := dr.build()
	if _, err := p.Solve(Options{Warm: basis}); err != nil {
		t.Fatal(err)
	}
	dr.term(c, dr.variable(2, 0, 4, "y"), 1)
	dr.into(p)

	snap := obs.Snapshot()
	sol, err := p.Solve(Options{Warm: basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warm || sol.Status != StatusOptimal {
		t.Fatalf("warm %v status %v, want cold optimal", sol.Warm, sol.Status)
	}
	d := delta(snap, warmCounterNames...)
	want := map[string]float64{
		"lp.warm.attempts": 1, "lp.warm.stale": 1, "lp.warm.cold_fallbacks": 1,
	}
	for _, n := range warmCounterNames {
		if d[n] != want[n] {
			t.Fatalf("warm-stale counter deltas %v, want attempts=1 stale=1 cold_fallbacks=1 rest 0", d)
		}
	}
}
