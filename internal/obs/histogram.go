package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"
)

// Histogram bucket geometry: log-bucketed with 8 sub-buckets per
// octave (powers of two), covering 2^-20 (~1 µs when observing
// seconds) through 2^14 (~4.5 h). Values below the range land in the
// underflow bucket, values above in the overflow bucket, so Observe
// never drops a sample. The geometry is fixed so histograms are
// mergeable bucket-by-bucket without rebinning.
const (
	histSubBuckets = 8 // per octave; relative quantile error ≤ 2^(1/8)-1 ≈ 9%
	histMinExp     = -20
	histMaxExp     = 14
	histNBuckets   = (histMaxExp-histMinExp)*histSubBuckets + 2 // + underflow, overflow
)

// Histogram is an atomic, log-bucketed, mergeable histogram with
// quantile estimation and Prometheus exposition. Observe is lock-free
// (one atomic add per bucket plus CAS loops for sum/max), so it is
// safe on the request hot path; readers see a consistent-enough view
// for operational use (buckets are read without a global lock, so a
// snapshot taken mid-Observe may be off by the in-flight sample). The
// zero value is an unregistered, empty histogram ready for use.
type Histogram struct {
	name, help string
	counts     [histNBuckets]atomic.Uint64
	total      atomic.Uint64
	sumBits    atomic.Uint64 // float64 bits, CAS-accumulated
	maxBits    atomic.Uint64 // float64 bits; valid for non-negative observations
}

// NewHistogram registers and returns a histogram. Names are dotted
// paths; duplicate registration panics.
func NewHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help}
	register(h)
	return h
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if !(v > 0) { // ≤ 0 and NaN go to the underflow bucket
		return 0
	}
	l := math.Log2(v)
	if l < histMinExp {
		return 0
	}
	idx := 1 + int((l-histMinExp)*histSubBuckets)
	if idx > histNBuckets-2 {
		return histNBuckets - 1
	}
	return idx
}

// bucketUpper returns the (exclusive) upper bound of bucket i; the
// overflow bucket's bound is +Inf.
func bucketUpper(i int) float64 {
	if i >= histNBuckets-1 {
		return math.Inf(1)
	}
	return math.Exp2(float64(histMinExp) + float64(i)/histSubBuckets)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observed value (0 before any observation;
// meaningful for non-negative samples).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (q in [0,1]) by geometric
// interpolation inside the holding bucket; with 8 sub-buckets per
// octave the relative error is bounded by ~9%. Returns 0 when empty.
// The overflow bucket reports the observed max, the underflow bucket
// its upper bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i := 0; i < histNBuckets; i++ {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= target {
			switch {
			case i == 0:
				return bucketUpper(0)
			case i == histNBuckets-1:
				return h.Max()
			}
			lo, hi := bucketUpper(i-1), bucketUpper(i)
			frac := (target - cum) / n
			v := lo * math.Pow(hi/lo, frac)
			// Interpolation can overshoot the true sample maximum in the
			// top occupied bucket; never report beyond the recorded max.
			if m := h.Max(); m > 0 && v > m {
				return m
			}
			return v
		}
		cum += n
	}
	return h.Max()
}

// HistogramSummary is a point-in-time quantile digest of a histogram,
// in the histogram's native unit.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary digests the histogram's current state.
func (h *Histogram) Summary() HistogramSummary {
	return HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Help returns the metric description.
func (h *Histogram) Help() string { return h.help }

// Kind returns KindHistogram.
func (h *Histogram) Kind() Kind { return KindHistogram }

// Float returns the sample count as a float64 (the scalar view used by
// Snapshot; quantiles need the full histogram).
func (h *Histogram) Float() float64 { return float64(h.total.Load()) }

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sumBits.Store(0)
	h.maxBits.Store(0)
}

// writeProm writes the Prometheus histogram exposition: cumulative
// _bucket lines for every non-empty bucket (a legal sparse encoding —
// cumulative counts stay exact), then _sum and _count.
func (h *Histogram) writeProm(w io.Writer) error {
	pn := PromName(h.name)
	if h.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", pn, h.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	var cum uint64
	for i := 0; i < histNBuckets-1; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		le := strconv.FormatFloat(bucketUpper(i), 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.total.Load()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %v\n%s_count %d\n", pn, h.Sum(), pn, h.total.Load()); err != nil {
		return err
	}
	return nil
}
