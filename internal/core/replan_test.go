package core

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"metis/internal/demand"
	"metis/internal/obs"
	"metis/internal/stats"
	"metis/internal/wan"
)

// requestPool generates k requests on net for the replanner traces.
func requestPool(t *testing.T, net *wan.Network, k int, seed int64) []demand.Request {
	t.Helper()
	g, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.GenerateN(k)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// replanBoth replans the incremental replanner and the cold-refine
// comparator and requires identical per-request path choices, profit and
// capacity plan. at locates the replan in failure messages.
func replanBoth(t *testing.T, at string, inc, cold *Replanner) {
	t.Helper()
	ri, err := inc.Replan(nil)
	if err != nil {
		t.Fatalf("%s: incremental replan: %v", at, err)
	}
	rc, err := cold.Replan(nil)
	if err != nil {
		t.Fatalf("%s: cold replan: %v", at, err)
	}
	if ri.Degraded || rc.Degraded {
		t.Fatalf("%s: degraded replan without a deadline (inc=%v cold=%v)", at, ri.Degraded, rc.Degraded)
	}
	for i := 0; i < inc.NumObserved(); i++ {
		ci, cc := ri.Schedule.Choice(i), rc.Schedule.Choice(i)
		if ci != cc {
			t.Fatalf("%s: request %d decided differently: incremental path %d, cold rebuild path %d", at, i, ci, cc)
		}
	}
	if ri.Profit != rc.Profit {
		t.Fatalf("%s: profit diverged: incremental %.17g, cold rebuild %.17g", at, ri.Profit, rc.Profit)
	}
	for e := range ri.Charged {
		if ri.Charged[e] != rc.Charged[e] {
			t.Fatalf("%s: plan diverged on link %d: incremental %d, cold rebuild %d", at, e, ri.Charged[e], rc.Charged[e])
		}
	}
}

// driveParityTrace pushes one randomized arrival trace through an
// incremental replanner and the cold-refine comparator, asserting
// identical admit/reject decisions (per-request path choices) and
// identical profit after every replan. Failure messages carry the seed;
// rebuild the trace with stats.NewRNG(seed) and the same parameters.
func driveParityTrace(t *testing.T, seed int64, k int) {
	t.Helper()
	net := wan.SubB4()
	rng := stats.NewRNG(seed)
	pool := requestPool(t, net, k, seed)
	cfg := Config{Theta: 2, Seed: seed}
	inc := NewReplanner(net, 12, 3, cfg, ReplanIncremental)
	cold := NewReplanner(net, 12, 3, cfg, ReplanColdRefine)

	used := 0
	for epoch := 0; used < len(pool); epoch++ {
		batch := 1 + rng.Intn(7)
		if used+batch > len(pool) {
			batch = len(pool) - used
		}
		arrivals := pool[used : used+batch]
		used += batch
		if err := inc.Observe(arrivals); err != nil {
			t.Fatalf("seed %d epoch %d: incremental observe: %v", seed, epoch, err)
		}
		if err := cold.Observe(arrivals); err != nil {
			t.Fatalf("seed %d epoch %d: cold observe: %v", seed, epoch, err)
		}
		// Occasionally skip the replan (the policy's replan-every
		// cadence): both paths must tolerate multi-batch deltas.
		if rng.Float64() < 0.25 && used < len(pool) {
			continue
		}
		replanBoth(t, fmt.Sprintf("seed %d epoch %d", seed, epoch), inc, cold)
	}
}

// TestReplannerIncrementalMatchesColdRebuild is the differential parity
// layer for the tentpole: over ≥100 randomized arrival traces, the
// incremental replanner (persistent warm BLSession, appended-column
// arrivals) and the from-scratch cold comparator must make identical
// admit/reject decisions and report identical profit after every replan.
func TestReplannerIncrementalMatchesColdRebuild(t *testing.T) {
	traces := 100
	if testing.Short() {
		traces = 25
	}
	for trace := 0; trace < traces; trace++ {
		seed := int64(9000 + trace)
		driveParityTrace(t, seed, 24+trace%17)
	}
}

// TestReplannerParityFullScale runs the parity sweep at service scale
// (K = 400): two traces by default, all ten under METIS_PARITY_FULL.
func TestReplannerParityFullScale(t *testing.T) {
	traces := 2
	if os.Getenv("METIS_PARITY_FULL") != "" {
		traces = 10
	} else if testing.Short() {
		t.Skip("service-scale traces are skipped in -short mode")
	}
	for trace := 0; trace < traces; trace++ {
		seed := int64(77000 + trace)
		driveParityTrace(t, seed, 400)
	}
}

// TestReplannerServiceScaleKeepsWarmOptimum drives both refinement modes
// through the benchmark's replan-capacity shape — SUB-B4, 12 slots, 600
// requests per cycle ordered by Start, a replan every second slot, a
// Reset at the cycle wrap — and requires identical decisions at every
// replan and that the session's tie-break, not the cold re-solve rung,
// is what delivers them: cold re-solves stay under 15% of replans.
func TestReplannerServiceScaleKeepsWarmOptimum(t *testing.T) {
	const slots, perCycle, replanEvery, cycles = 12, 600, 2, 2
	net := wan.SubB4()
	cfg := Config{Seed: 1}
	inc := NewReplanner(net, slots, 0, cfg, ReplanIncremental)
	cold := NewReplanner(net, slots, 0, cfg, ReplanColdRefine)
	const counter = "spm.session.cold_resolves"
	before := obs.Snapshot()[counter]
	replans := 0
	for c := 0; c < cycles; c++ {
		pool := requestPool(t, net, perCycle, int64(1000+c))
		sort.SliceStable(pool, func(a, b int) bool { return pool[a].Start < pool[b].Start })
		for slot, next := 0, 0; slot < slots; slot++ {
			from := next
			for next < len(pool) && pool[next].Start == slot {
				next++
			}
			for _, rp := range []*Replanner{inc, cold} {
				if err := rp.Observe(pool[from:next]); err != nil {
					t.Fatalf("cycle %d slot %d: observe: %v", c, slot, err)
				}
			}
			if slot%replanEvery != 0 || inc.NumObserved() == inc.NumPlanned() {
				continue
			}
			replanBoth(t, fmt.Sprintf("cycle %d slot %d", c, slot), inc, cold)
			replans++
		}
		inc.Reset()
		cold.Reset()
	}
	resolves := obs.Snapshot()[counter] - before
	t.Logf("%v cold re-solves in %d replans", resolves, replans)
	if resolves > 0.15*float64(replans) {
		t.Fatalf("%v of %d warm session solves were re-solved cold, want ≤ 15%%", resolves, replans)
	}
}

// TestReplannerCycleWrapReset: Reset drops all cycle state and the next
// replan starts a fresh cycle whose decisions again agree across modes.
func TestReplannerCycleWrapReset(t *testing.T) {
	net := wan.SubB4()
	pool := requestPool(t, net, 40, 314)
	cfg := Config{Theta: 2, Seed: 314}
	inc := NewReplanner(net, 12, 3, cfg, ReplanIncremental)
	cold := NewReplanner(net, 12, 3, cfg, ReplanColdRefine)
	for _, rp := range []*Replanner{inc, cold} {
		if err := rp.Observe(pool[:25]); err != nil {
			t.Fatal(err)
		}
		if _, err := rp.Replan(nil); err != nil {
			t.Fatal(err)
		}
		rp.Reset()
		if rp.NumObserved() != 0 || rp.NumPlanned() != 0 {
			t.Fatalf("reset left state: observed %d planned %d", rp.NumObserved(), rp.NumPlanned())
		}
		if err := rp.Observe(pool[25:]); err != nil {
			t.Fatal(err)
		}
	}
	ri, err := inc.Replan(nil)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cold.Replan(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inc.NumObserved(); i++ {
		if ri.Schedule.Choice(i) != rc.Schedule.Choice(i) {
			t.Fatalf("post-wrap decision diverged on request %d", i)
		}
	}
	if ri.Profit != rc.Profit {
		t.Fatalf("post-wrap profit diverged: %v vs %v", ri.Profit, rc.Profit)
	}
}
