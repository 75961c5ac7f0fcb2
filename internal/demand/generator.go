package demand

import (
	"fmt"

	"metis/internal/stats"
	"metis/internal/wan"
)

// Default generator parameters matching Section V of the paper.
const (
	// DefaultSlots is the billing cycle length (12 months).
	DefaultSlots = 12
	// DefaultRateLo/Hi bound the uniform bandwidth requirement in units
	// of 10 Gbps (paper: 0.1–5 Gbps).
	DefaultRateLo = 0.01
	DefaultRateHi = 0.5
	// DefaultMarkupLo/Hi bound the uniform value markup over the
	// amortized cheapest-path cost (see GeneratorConfig.Value docs).
	// The low end sits below break-even so a realistic fraction of
	// requests is genuinely unprofitable — the regime in which
	// declining requests beats the accept-everything service mode.
	DefaultMarkupLo = 0.5
	DefaultMarkupHi = 6.0
)

// GeneratorConfig parameterizes the synthetic workload generator.
type GeneratorConfig struct {
	// Slots is the number of time slots in a billing cycle (default 12).
	Slots int
	// RateLo and RateHi bound the uniform bandwidth requirement in units.
	RateLo, RateHi float64
	// MarkupLo and MarkupHi bound the uniform value markup. A request's
	// value is
	//
	//	v = rate · (duration/Slots) · referencePrice · markup
	//
	// where referencePrice is the network-wide median cheapest-path
	// price and markup ~ U(MarkupLo, MarkupHi). The reference price
	// models cloud-provider list prices, which are roughly uniform
	// across regions, while the provider's own transport cost varies
	// with the ISP link prices — so requests crossing expensive regions
	// are frequently unprofitable, the economic tension the paper's
	// operational model exploits.
	MarkupLo, MarkupHi float64
	// Seed makes the workload reproducible.
	Seed int64
}

// DefaultGeneratorConfig returns the paper-default configuration.
func DefaultGeneratorConfig(seed int64) GeneratorConfig {
	return GeneratorConfig{
		Slots:    DefaultSlots,
		RateLo:   DefaultRateLo,
		RateHi:   DefaultRateHi,
		MarkupLo: DefaultMarkupLo,
		MarkupHi: DefaultMarkupHi,
		Seed:     seed,
	}
}

func (c GeneratorConfig) validate() error {
	switch {
	case c.Slots <= 0:
		return fmt.Errorf("demand: config: slots %d must be positive", c.Slots)
	case c.RateLo <= 0 || c.RateHi < c.RateLo:
		return fmt.Errorf("demand: config: rate bounds (%v, %v) invalid", c.RateLo, c.RateHi)
	case c.MarkupLo < 0 || c.MarkupHi < c.MarkupLo:
		return fmt.Errorf("demand: config: markup bounds (%v, %v) invalid", c.MarkupLo, c.MarkupHi)
	}
	return nil
}

// Generator produces synthetic request workloads over a network.
type Generator struct {
	cfg GeneratorConfig
	net *wan.Network
	rng *stats.RNG

	refPrice float64
	nextID   int
}

// NewGenerator builds a generator for the given network and config.
func NewGenerator(net *wan.Network, cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if net.NumDCs() < 2 {
		return nil, fmt.Errorf("demand: network %q has fewer than 2 DCs", net.Name())
	}
	ref, err := referencePrice(net)
	if err != nil {
		return nil, err
	}
	return &Generator{
		cfg:      cfg,
		net:      net,
		rng:      stats.NewRNG(cfg.Seed),
		refPrice: ref,
	}, nil
}

// referencePrice computes the median cheapest-path price over all
// ordered DC pairs.
func referencePrice(net *wan.Network) (float64, error) {
	var prices []float64
	for s := 0; s < net.NumDCs(); s++ {
		for d := 0; d < net.NumDCs(); d++ {
			if s == d {
				continue
			}
			p, err := net.CheapestPathPrice(s, d)
			if err != nil {
				return 0, fmt.Errorf("demand: reference price: %w", err)
			}
			prices = append(prices, p)
		}
	}
	return stats.Percentile(prices, 50), nil
}

// GenerateN returns exactly k requests. Arrival slots are drawn from a
// homogeneous Poisson process over the billing cycle (conditioned on k
// arrivals, arrival slots are i.i.d. uniform — the standard conditional
// property of Poisson processes), end slots are uniform in [start, T-1],
// and endpoints are uniform distinct DC pairs.
func (g *Generator) GenerateN(k int) ([]Request, error) {
	if k < 0 {
		return nil, fmt.Errorf("demand: cannot generate %d requests", k)
	}
	reqs := make([]Request, 0, k)
	for i := 0; i < k; i++ {
		r, err := g.one()
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

func (g *Generator) one() (Request, error) {
	src := g.rng.Intn(g.net.NumDCs())
	dst := g.rng.Intn(g.net.NumDCs() - 1)
	if dst >= src {
		dst++
	}
	start := g.rng.Intn(g.cfg.Slots)
	end := g.rng.IntBetween(start, g.cfg.Slots-1)
	rate := g.rng.Uniform(g.cfg.RateLo, g.cfg.RateHi)

	dur := float64(end-start+1) / float64(g.cfg.Slots)
	markup := g.rng.Uniform(g.cfg.MarkupLo, g.cfg.MarkupHi)
	value := rate * dur * g.refPrice * markup

	r := Request{
		ID:    g.nextID,
		Src:   src,
		Dst:   dst,
		Start: start,
		End:   end,
		Rate:  rate,
		Value: value,
	}
	g.nextID++
	return r, nil
}
