package spm

import (
	"math"
	"testing"

	"metis/internal/lp"
	"metis/internal/stats"
	"metis/internal/wan"
)

// shrinkingSubsets builds a Metis-round-like sequence of strictly
// shrinking request subsets of 0..k-1.
func shrinkingSubsets(rng *stats.RNG, k, rounds int) [][]int {
	cur := make([]int, k)
	for i := range cur {
		cur[i] = i
	}
	out := [][]int{append([]int(nil), cur...)}
	for r := 1; r < rounds && len(cur) > 1; r++ {
		drop := 1 + rng.Intn(2)
		for d := 0; d < drop && len(cur) > 1; d++ {
			at := rng.Intn(len(cur))
			cur = append(cur[:at], cur[at+1:]...)
		}
		out = append(out, append([]int(nil), cur...))
	}
	return out
}

// TestRLModelMatchesColdSubsets: across shrinking subsets, the
// incremental warm-started RLModel must report the same relaxed cost
// (±1e-9) as a cold SolveRLRelaxation on a fresh sub-instance, with
// X rows shaped to the subset.
func TestRLModelMatchesColdSubsets(t *testing.T) {
	for _, k := range []int{12, 25} {
		inst := subB4Instance(t, genRequests(t, wan.SubB4(), k, int64(k)))
		model, err := NewRLModel(inst, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(int64(k) + 7)
		for round, subset := range shrinkingSubsets(rng, k, 6) {
			warm, err := model.SolveSubset(subset)
			if err != nil {
				t.Fatalf("k=%d round %d: %v", k, round, err)
			}
			sub, err := inst.Subset(subset)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := SolveRLRelaxation(sub, lp.Options{})
			if err != nil {
				t.Fatalf("k=%d round %d cold: %v", k, round, err)
			}
			tol := 1e-9 * (1 + math.Abs(cold.Cost))
			if math.Abs(warm.Cost-cold.Cost) > tol {
				t.Fatalf("k=%d round %d (|S|=%d): model cost %.15g != cold %.15g",
					k, round, len(subset), warm.Cost, cold.Cost)
			}
			if len(warm.X) != len(subset) {
				t.Fatalf("k=%d round %d: X has %d rows, want %d", k, round, len(warm.X), len(subset))
			}
			for kk, i := range subset {
				if len(warm.X[kk]) != inst.NumPaths(i) {
					t.Fatalf("k=%d round %d: X[%d] has %d paths, want %d",
						k, round, kk, len(warm.X[kk]), inst.NumPaths(i))
				}
				var sum float64
				for _, v := range warm.X[kk] {
					sum += v
				}
				if math.Abs(sum-1) > 1e-6 {
					t.Fatalf("k=%d round %d: X[%d] sums to %v, want 1", k, round, kk, sum)
				}
			}
		}
	}
}

// TestBLModelMatchesColdSubsets: the BLModel analogue, with shrinking
// capacities layered on top of shrinking subsets.
func TestBLModelMatchesColdSubsets(t *testing.T) {
	for _, k := range []int{12, 25} {
		inst := subB4Instance(t, genRequests(t, wan.SubB4(), k, int64(k)+100))
		model, err := NewBLModel(inst, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		links := inst.Network().NumLinks()
		caps := make([]int, links)
		rng := stats.NewRNG(int64(k) + 17)
		for e := range caps {
			caps[e] = 2 + rng.Intn(4)
		}
		for round, subset := range shrinkingSubsets(rng, k, 6) {
			if round > 0 {
				// Shrink one positive-capacity link, like the τ rule.
				for tries := 0; tries < 10; tries++ {
					e := rng.Intn(links)
					if caps[e] > 0 {
						caps[e]--
						break
					}
				}
			}
			warm, err := model.SolveSubset(subset, caps)
			if err != nil {
				t.Fatalf("k=%d round %d: %v", k, round, err)
			}
			sub, err := inst.Subset(subset)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := SolveBLRelaxation(sub, caps, lp.Options{})
			if err != nil {
				t.Fatalf("k=%d round %d cold: %v", k, round, err)
			}
			tol := 1e-9 * (1 + math.Abs(cold.Revenue))
			if math.Abs(warm.Revenue-cold.Revenue) > tol {
				t.Fatalf("k=%d round %d (|S|=%d): model revenue %.15g != cold %.15g",
					k, round, len(subset), warm.Revenue, cold.Revenue)
			}
			if len(warm.X) != len(subset) {
				t.Fatalf("k=%d round %d: X has %d rows, want %d", k, round, len(warm.X), len(subset))
			}
		}
	}
}

// TestRLModelSubsetValidation: out-of-range subset indices and
// mis-sized capacity vectors must error, not corrupt the model.
func TestRLModelSubsetValidation(t *testing.T) {
	inst := subB4Instance(t, genRequests(t, wan.SubB4(), 5, 9))
	rl, err := NewRLModel(inst, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rl.SolveSubset([]int{0, 7}); err == nil {
		t.Fatal("RLModel accepted out-of-range request")
	}
	bl, err := NewBLModel(inst, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.SolveSubset([]int{0}, []int{1}); err == nil {
		t.Fatal("BLModel accepted mis-sized capacity vector")
	}
	caps := make([]int, inst.Network().NumLinks())
	if _, err := bl.SolveSubset([]int{-1}, caps); err == nil {
		t.Fatal("BLModel accepted negative request index")
	}
}
