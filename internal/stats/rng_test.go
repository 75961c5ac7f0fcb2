package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Float64(), b.Float64(); got != want {
			t.Fatalf("draw %d: %v != %v", i, got, want)
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		x := g.Uniform(0.1, 5.0)
		if x < 0.1 || x >= 5.0 {
			t.Fatalf("sample %v outside [0.1, 5.0)", x)
		}
	}
}

func TestUniformMean(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Uniform(2, 4)
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.02 {
		t.Fatalf("mean %v too far from 3", mean)
	}
}

func TestIntBetweenInclusive(t *testing.T) {
	g := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := g.IntBetween(1, 12)
		if v < 1 || v > 12 {
			t.Fatalf("value %d outside [1, 12]", v)
		}
		seen[v] = true
	}
	for v := 1; v <= 12; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn", v)
		}
	}
}

func TestPickWeighted(t *testing.T) {
	g := NewRNG(13)
	weights := []float64{0, 1, 3, 0}
	counts := make([]int, len(weights))
	const n = 40000
	for i := 0; i < n; i++ {
		idx := g.PickWeighted(weights)
		if idx < 0 || idx >= len(weights) {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight entries drawn: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("ratio %v, want ~3", ratio)
	}
}

func TestPickWeightedAllZero(t *testing.T) {
	g := NewRNG(17)
	if got := g.PickWeighted([]float64{0, 0}); got != -1 {
		t.Fatalf("got %d, want -1", got)
	}
	if got := g.PickWeighted(nil); got != -1 {
		t.Fatalf("got %d, want -1 for nil weights", got)
	}
}

func TestPickWeightedProperty(t *testing.T) {
	g := NewRNG(23)
	// Property: whenever at least one weight is positive, the chosen
	// index must carry a positive weight.
	f := func(raw []float64) bool {
		anyPositive := false
		for i, w := range raw {
			raw[i] = math.Abs(w)
			if raw[i] > 0 {
				anyPositive = true
			}
		}
		idx := g.PickWeighted(raw)
		if !anyPositive {
			return idx == -1
		}
		return idx >= 0 && raw[idx] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(29)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPickWeightedWithMatchesPickWeighted(t *testing.T) {
	// PickWeightedWith(u, w) with u drawn from a twin RNG must replicate
	// PickWeighted exactly, including which calls consume a draw: that
	// contract is what lets maa pre-draw its rounding uniforms.
	a := NewRNG(23)
	b := NewRNG(23)
	weightSets := [][]float64{
		{0.2, 0.5, 0.3},
		{0, 0, 0},
		{1},
		{0, 2, 0, 1e-12, 0},
		{0.25, 0.25, 0.25, 0.25},
		{},
		{3, 0, 0, 0},
	}
	for rep := 0; rep < 50; rep++ {
		for _, w := range weightSets {
			want := a.PickWeighted(w)
			got := -1
			if HasPositiveWeight(w) {
				got = PickWeightedWith(b.Float64(), w)
			}
			if got != want {
				t.Fatalf("rep %d weights %v: PickWeightedWith picked %d, PickWeighted picked %d", rep, w, got, want)
			}
		}
	}
	// Both RNGs must also end in the same state.
	if x, y := a.Float64(), b.Float64(); x != y {
		t.Fatalf("RNG states diverged: %v != %v", x, y)
	}
}
