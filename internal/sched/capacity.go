package sched

import (
	"math"
	"slices"

	"metis/internal/demand"
	"metis/internal/wan"
)

// Capacity is committed link state under the purchase rule: the load
// promised per (link, slot) and the whole bandwidth units bought per
// link. Committing a request adds its rate over its window on every
// link of its path and raises the link's purchase to the ceiling of the
// new peak; a purchase never goes down, so units bought stay paid. The
// offline greedy seed, the online policies and the service ledger all
// account through it.
type Capacity struct {
	net       *wan.Network
	loads     [][]float64 // committed load per (link, slot)
	purchased []int       // units bought per link (monotone)
}

// NewCapacity returns empty capacity over net's links and a cycle of
// slots slots.
func NewCapacity(net *wan.Network, slots int) *Capacity {
	loads := make([][]float64, net.NumLinks())
	for e := range loads {
		loads[e] = make([]float64, slots)
	}
	return CapacityOf(net, loads, make([]int, net.NumLinks()))
}

// Renew makes c the empty capacity NewCapacity(net, slots) returns, in
// c's arrays. Renew(nil, 0) drops c's network and keeps only the arrays.
func (c *Capacity) Renew(net *wan.Network, slots int) {
	links := 0
	if net != nil {
		links = net.NumLinks()
	}
	c.net = net
	c.loads = ZeroLoads(c.loads, links, slots)
	c.purchased = slices.Grow(c.purchased[:0], links)[:links]
	clear(c.purchased)
}

// CapacityOf returns capacity holding loads and purchased as they are,
// without copying: commits write through to them.
func CapacityOf(net *wan.Network, loads [][]float64, purchased []int) *Capacity {
	return &Capacity{net: net, loads: loads, purchased: purchased}
}

// Loads returns a copy of the committed per-(link, slot) load matrix.
func (c *Capacity) Loads() [][]float64 {
	out := make([][]float64, len(c.loads))
	for e := range c.loads {
		out[e] = slices.Clone(c.loads[e])
	}
	return out
}

// Purchased returns a copy of the per-link purchased units.
func (c *Capacity) Purchased() []int { return slices.Clone(c.purchased) }

// PeakLoad returns link e's peak committed load over the cycle.
func (c *Capacity) PeakLoad(e int) float64 {
	var peak float64
	for _, v := range c.loads[e] {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// PurchasedUnits returns the total units purchased across links.
func (c *Capacity) PurchasedUnits() int {
	var n int
	for _, units := range c.purchased {
		n += units
	}
	return n
}

// Cost returns the purchase cost Σ_e price_e·purchased_e.
func (c *Capacity) Cost() float64 {
	var cost float64
	for e, units := range c.purchased {
		cost += float64(units) * c.net.Link(e).Price
	}
	return cost
}

// Residual returns the uncommitted capacity per (link, slot):
// purchased − load, clamped at zero.
func (c *Capacity) Residual() [][]float64 {
	out := make([][]float64, len(c.loads))
	for e := range c.loads {
		out[e] = make([]float64, len(c.loads[e]))
		for t, v := range c.loads[e] {
			out[e][t] = max(float64(c.purchased[e])-v, 0)
		}
	}
	return out
}

// MarginalCost prices the extra units routing r over links would buy:
// Σ price·(ceiling of the new peak − purchased) over the links whose
// peak outgrows their purchase.
func (c *Capacity) MarginalCost(r demand.Request, links []int) float64 {
	var cost float64
	for _, e := range links {
		var peak float64
		for t := r.Start; t <= r.End; t++ {
			if v := c.loads[e][t] + r.Rate; v > peak {
				peak = v
			}
		}
		if u := CeilUnits(peak); u > c.purchased[e] {
			cost += float64(u-c.purchased[e]) * c.net.Link(e).Price
		}
	}
	return cost
}

// Fits reports whether r fits over links without any new purchase.
func (c *Capacity) Fits(r demand.Request, links []int) bool {
	for _, e := range links {
		for t := r.Start; t <= r.End; t++ {
			if c.loads[e][t]+r.Rate > float64(c.purchased[e])+ceilEps {
				return false
			}
		}
	}
	return true
}

// Commit reserves r's rate over its window on every one of links and
// buys the extra whole units each link's new peak requires.
func (c *Capacity) Commit(r demand.Request, links []int) {
	for _, e := range links {
		var peak float64
		for t := r.Start; t <= r.End; t++ {
			c.loads[e][t] += r.Rate
			if c.loads[e][t] > peak {
				peak = c.loads[e][t]
			}
		}
		if u := CeilUnits(peak); u > c.purchased[e] {
			c.purchased[e] = u
		}
	}
}

// Provision raises each link's purchase to at least plan[e], so a
// plan's cost is accounted even if little of it is used. plan must not
// be longer than the link count.
func (c *Capacity) Provision(plan []int) {
	for e, units := range plan {
		c.purchased[e] = max(c.purchased[e], units)
	}
}

// Admit runs marginal-cost admission over order against s: each
// request still declined goes on the candidate path whose marginal
// cost is lowest (the first on ties) and is committed iff its value
// exceeds that cost. Passes over order repeat, at most passes times,
// until one admits nothing, so headroom bought by a later request can
// admit an earlier one.
func (c *Capacity) Admit(s *Schedule, order []int, passes int) {
	inst := s.Instance()
	for pass := 0; pass < passes; pass++ {
		added := false
		for _, i := range order {
			if s.choice[i] != Declined {
				continue
			}
			r := inst.Request(i)
			bestPath, bestCost := -1, math.Inf(1)
			for j := 0; j < inst.NumPaths(i); j++ {
				if cost := c.MarginalCost(r, inst.Path(i, j).Links); cost < bestCost {
					bestPath, bestCost = j, cost
				}
			}
			if bestPath == -1 || r.Value <= bestCost {
				continue
			}
			c.Commit(r, inst.Path(i, bestPath).Links)
			s.choice[i] = bestPath
			added = true
		}
		if !added {
			return
		}
	}
}

// Reset clears all loads and purchases for a new billing cycle.
func (c *Capacity) Reset() {
	clear(c.purchased)
	for e := range c.loads {
		clear(c.loads[e])
	}
}

// Clone returns an independent copy (the network is shared).
func (c *Capacity) Clone() *Capacity {
	return CapacityOf(c.net, c.Loads(), c.Purchased())
}

// Equal reports whether two capacities carry bit-for-bit identical
// loads and purchases.
func (c *Capacity) Equal(o *Capacity) bool {
	return slices.Equal(c.purchased, o.purchased) &&
		slices.EqualFunc(c.loads, o.loads, slices.Equal)
}
