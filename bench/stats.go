package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the number of samples a reported tail percentile must
// leave above it: a percentile resting on fewer is one or two outliers,
// not a property of the distribution.
const tailBeyond = 10

// tailQuantile returns the highest quantile of n samples that still
// has tailBeyond samples above it, capped at p99 and floored at the
// median. It moves continuously with n, so a time-boxed run that
// collects a few samples more or fewer does not jump between two
// named percentiles.
func tailQuantile(n int) float64 {
	if n <= 2*tailBeyond {
		return 0.5
	}
	return math.Min(0.99, 1-float64(tailBeyond)/float64(n))
}

// samples is a set of timings in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile interpolates linearly between order statistics; s must be
// sorted. An empty set reads 0.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// digest is the reported form of a timing: the median, the tail
// percentile chosen by tailQuantile, that percentile, and the count.
type digest struct {
	P50, Tail, TailPct float64
	N                  int
}

func (s samples) digest() digest {
	c := s.sorted()
	q := tailQuantile(len(c))
	return digest{P50: c.quantile(0.5), Tail: c.quantile(q), TailPct: 100 * q, N: len(c)}
}

func median(v []float64) float64 { return samples(v).sorted().quantile(0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
