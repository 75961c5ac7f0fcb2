package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram // the zero value is ready for use
	for _, v := range []float64{0.001, 0.002, 0.004, 0.008, 0.5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-0.515) > 1e-12 {
		t.Fatalf("sum = %v, want 0.515", got)
	}
	if got := h.Max(); got != 0.5 {
		t.Fatalf("max = %v, want 0.5", got)
	}
	if got := h.Mean(); math.Abs(got-0.103) > 1e-12 {
		t.Fatalf("mean = %v, want 0.103", got)
	}
	// The median must land near 0.004 (third of five samples).
	if q := h.Quantile(0.5); q < 0.0035 || q > 0.0045 {
		t.Fatalf("p50 = %v, want ≈0.004", q)
	}
	s := h.Summary()
	if s.Count != 5 || s.Max != 0.5 || s.P99 < s.P50 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	// ≤0, NaN, tiny and huge samples must all be counted, never dropped.
	for _, v := range []float64{0, -3, math.NaN(), 1e-12, 1e12} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if q := h.Quantile(1); q != 1e12 {
		t.Fatalf("p100 = %v, want the overflow max 1e12", q)
	}
	if h.Quantile(0) <= 0 {
		t.Fatal("p0 must report a positive underflow bound")
	}
}

// TestHistogramQuantileAccuracy checks the estimator against a
// reference sort: with 8 sub-buckets per octave the relative error is
// bounded by 2^(1/8)-1 ≈ 9%.
func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over [1e-5, 100): exercises 23 octaves.
		vals[i] = math.Pow(10, -5+7*rng.Float64())
		h.Observe(vals[i])
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.95, 0.99} {
		ref := vals[int(q*float64(n-1))]
		got := h.Quantile(q)
		if rel := math.Abs(got-ref) / ref; rel > 0.10 {
			t.Fatalf("q=%v: histogram %v vs reference %v (relative error %.3f > 0.10)", q, got, ref, rel)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, perWorker = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(1.0) // sums of 1.0 are exact in float64
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	if got := h.Sum(); got != workers*perWorker {
		t.Fatalf("sum = %v, want %d (CAS accumulation lost updates)", got, workers*perWorker)
	}
}
