// Package forecast provides the demand-forecasting substrate for
// capacity planning across billing cycles: per-DC-pair traffic
// aggregation, exponentially-weighted moving-average smoothing, and
// synthesis of a representative workload from a forecast (which MAA
// then turns into a bandwidth purchase plan).
//
// The paper plans capacity from "historical data [6], [20]"; this
// package is the minimal honest version of that pipeline.
package forecast

import (
	"fmt"

	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/stats"
	"metis/internal/wan"
)

// PairStats aggregates one DC pair's demand within a cycle.
type PairStats struct {
	// Count is the number of requests.
	Count float64
	// RateSlots is Σ rate·duration — total bandwidth-slots demanded.
	RateSlots float64
	// MeanRate and MeanDuration describe a typical request.
	MeanRate     float64
	MeanDuration float64
	// MeanValue is the average request value.
	MeanValue float64
}

// Matrix holds per-ordered-pair demand statistics.
type Matrix struct {
	n     int
	pairs map[[2]int]PairStats
}

// NewMatrix creates an empty matrix for a network with n DCs.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, pairs: make(map[[2]int]PairStats)}
}

// Pair returns the statistics of the (src, dst) pair.
func (m *Matrix) Pair(src, dst int) PairStats { return m.pairs[[2]int{src, dst}] }

// TotalCount returns the total forecast request count. The package's
// tests (TestObserveAggregates, the EWMA tests) read it as the volume
// oracle; no production path does.
func (m *Matrix) TotalCount() float64 {
	var c float64
	for _, p := range m.pairs {
		c += p.Count
	}
	return c
}

// Observe aggregates an observed cycle's requests into a Matrix.
func Observe(net *wan.Network, reqs []demand.Request) *Matrix {
	m := NewMatrix(net.NumDCs())
	type acc struct {
		count, rateSlots, rate, dur, value float64
	}
	accs := make(map[[2]int]*acc)
	for _, r := range reqs {
		key := [2]int{r.Src, r.Dst}
		a := accs[key]
		if a == nil {
			a = &acc{}
			accs[key] = a
		}
		a.count++
		a.rateSlots += r.Rate * float64(r.Duration())
		a.rate += r.Rate
		a.dur += float64(r.Duration())
		a.value += r.Value
	}
	for key, a := range accs {
		m.pairs[key] = PairStats{
			Count:        a.count,
			RateSlots:    a.rateSlots,
			MeanRate:     a.rate / a.count,
			MeanDuration: a.dur / a.count,
			MeanValue:    a.value / a.count,
		}
	}
	return m
}

// EWMA smooths demand matrices across cycles:
// state ← α·observation + (1−α)·state.
type EWMA struct {
	alpha float64
	state *Matrix
}

// NewEWMA creates a forecaster with smoothing factor α in (0, 1].
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("forecast: α = %v outside (0, 1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Update folds an observed cycle into the forecast state.
func (f *EWMA) Update(obs *Matrix) {
	if f.state == nil {
		f.state = copyMatrix(obs)
		return
	}
	merged := NewMatrix(obs.n)
	keys := make(map[[2]int]bool)
	for k := range obs.pairs {
		keys[k] = true
	}
	for k := range f.state.pairs {
		keys[k] = true
	}
	for k := range keys {
		o := obs.pairs[k]
		s := f.state.pairs[k]
		merged.pairs[k] = PairStats{
			Count:        f.alpha*o.Count + (1-f.alpha)*s.Count,
			RateSlots:    f.alpha*o.RateSlots + (1-f.alpha)*s.RateSlots,
			MeanRate:     blendMean(f.alpha, o.MeanRate, o.Count, s.MeanRate, s.Count),
			MeanDuration: blendMean(f.alpha, o.MeanDuration, o.Count, s.MeanDuration, s.Count),
			MeanValue:    blendMean(f.alpha, o.MeanValue, o.Count, s.MeanValue, s.Count),
		}
	}
	f.state = merged
}

// Forecast returns the current forecast matrix (nil before any Update).
func (f *EWMA) Forecast() *Matrix {
	if f.state == nil {
		return nil
	}
	return copyMatrix(f.state)
}

// blendMean EWMA-blends two means, ignoring sides with zero mass.
func blendMean(alpha, oMean, oCount, sMean, sCount float64) float64 {
	switch {
	case oCount == 0:
		return sMean
	case sCount == 0:
		return oMean
	default:
		return alpha*oMean + (1-alpha)*sMean
	}
}

func copyMatrix(m *Matrix) *Matrix {
	out := NewMatrix(m.n)
	for k, v := range m.pairs {
		out.pairs[k] = v
	}
	return out
}

// Synthesize generates a representative workload from a forecast: per
// pair, round(Count) requests with the pair's typical rate, duration
// and value, randomly placed within the cycle. The result feeds MAA to
// produce a capacity plan.
func Synthesize(m *Matrix, slots int, rng *stats.RNG) []demand.Request {
	var reqs []demand.Request
	id := 0
	// Deterministic pair order for reproducibility.
	for src := 0; src < m.n; src++ {
		for dst := 0; dst < m.n; dst++ {
			if src == dst {
				continue
			}
			p := m.Pair(src, dst)
			count := int(p.Count + 0.5)
			for c := 0; c < count; c++ {
				dur := int(p.MeanDuration + 0.5)
				if dur < 1 {
					dur = 1
				}
				if dur > slots {
					dur = slots
				}
				start := rng.Intn(slots - dur + 1)
				rate := p.MeanRate
				if rate <= 0 {
					continue
				}
				reqs = append(reqs, demand.Request{
					ID:    id,
					Src:   src,
					Dst:   dst,
					Start: start,
					End:   start + dur - 1,
					Rate:  rate,
					Value: p.MeanValue,
				})
				id++
			}
		}
	}
	return reqs
}

// PlanInstance wraps a synthesized forecast workload into a scheduling
// instance ready for MAA-based capacity planning.
func PlanInstance(net *wan.Network, m *Matrix, slots, pathsPerRequest int, rng *stats.RNG) (*sched.Instance, error) {
	reqs := Synthesize(m, slots, rng)
	return sched.NewInstance(net, slots, reqs, pathsPerRequest)
}
