package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"metis/internal/demand"
	"metis/internal/stats"
	"metis/internal/wan"
)

// capacityInstance builds a k-request instance on net from seed.
func capacityInstance(t *testing.T, net *wan.Network, k int, seed int64) *Instance {
	t.Helper()
	gen, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.GenerateN(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(net, demand.DefaultSlots, reqs, DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// bruteMarginalCost prices routing request i on path j from scratch:
// add its load to a copy of c's loads, take every link's charged units
// and sum price·(charged − purchased)⁺ over the path.
func bruteMarginalCost(c *Capacity, inst *Instance, i, j int) float64 {
	loads := c.Loads()
	r := inst.Request(i)
	links := inst.Path(i, j).Links
	for _, e := range links {
		for t := r.Start; t <= r.End; t++ {
			loads[e][t] += r.Rate
		}
	}
	charged := ChargedOf(loads)
	var cost float64
	for _, e := range links {
		if extra := charged[e] - c.purchased[e]; extra > 0 {
			cost += float64(extra) * inst.Network().Link(e).Price
		}
	}
	return cost
}

// TestCapacityPurchaseRule drives random commit sequences on B4 and
// SUB-B4 and checks the purchase rule against its definition at every
// step: committing from empty buys exactly the ceiling of each link's
// peak, the marginal cost of a candidate matches a brute-force re-price,
// Fits agrees with a zero marginal cost, and a provisioned plan is a
// floor the commits only raise.
func TestCapacityPurchaseRule(t *testing.T) {
	for _, net := range []*wan.Network{wan.B4(), wan.SubB4()} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", net.Name(), seed), func(t *testing.T) {
				inst := capacityInstance(t, net, 60, seed)
				rng := stats.NewRNG(seed)
				plan := make([]int, net.NumLinks())
				for e := range plan {
					plan[e] = rng.Intn(3)
				}
				bare := NewCapacity(net, inst.Slots())
				planned := NewCapacity(net, inst.Slots())
				planned.Provision(plan)
				for step := 0; step < 3*inst.NumRequests(); step++ {
					i := rng.Intn(inst.NumRequests())
					j := rng.Intn(inst.NumPaths(i))
					r, links := inst.Request(i), inst.Path(i, j).Links
					for _, c := range []*Capacity{bare, planned} {
						got, want := c.MarginalCost(r, links), bruteMarginalCost(c, inst, i, j)
						if got != want {
							t.Fatalf("step %d: MarginalCost(%d, %d) = %v, brute force %v", step, i, j, got, want)
						}
						if c.Fits(r, links) && got != 0 {
							t.Fatalf("step %d: request %d fits path %d yet costs %v", step, i, j, got)
						}
						c.Commit(r, links)
					}
					charged := ChargedOf(bare.loads)
					if !slices.Equal(bare.purchased, charged) {
						t.Fatalf("step %d: purchased %v, ceiling of peaks %v", step, bare.purchased, charged)
					}
					for e, units := range planned.purchased {
						if want := max(plan[e], CeilUnits(planned.PeakLoad(e))); units != want {
							t.Fatalf("step %d: link %d purchased %d, want max(plan %d, ceil peak) = %d", step, e, units, plan[e], want)
						}
					}
				}
				cp := bare.Clone()
				if !cp.Equal(bare) {
					t.Fatal("a clone is not Equal to its source")
				}
				cp.Commit(inst.Request(0), inst.Path(0, 0).Links)
				if cp.Equal(bare) {
					t.Fatal("a commit to a clone shows in its source")
				}
			})
		}
	}
}

// TestCapacityAdmit checks the admission loop against its contract: the
// capacity it leaves carries the admitted schedule's loads and their
// ceilings, and a pass after the fixpoint moves nothing.
func TestCapacityAdmit(t *testing.T) {
	for _, net := range []*wan.Network{wan.B4(), wan.SubB4()} {
		inst := capacityInstance(t, net, 120, 7)
		order := make([]int, inst.NumRequests())
		for i := range order {
			order[i] = i
		}
		s := NewSchedule(inst)
		c := NewCapacity(net, inst.Slots())
		c.Admit(s, order, math.MaxInt)
		if s.NumAccepted() == 0 || s.NumAccepted() == inst.NumRequests() {
			t.Fatalf("%s: admitted %d of %d, want a proper subset", net.Name(), s.NumAccepted(), inst.NumRequests())
		}
		want := s.Loads()
		for e := range want {
			for tt, v := range want[e] {
				if math.Abs(c.loads[e][tt]-v) > 1e-9 {
					t.Fatalf("%s: load[%d][%d] = %v, schedule says %v", net.Name(), e, tt, c.loads[e][tt], v)
				}
			}
		}
		if !slices.Equal(c.purchased, ChargedOf(c.loads)) {
			t.Fatalf("%s: purchased %v, ceiling of peaks %v", net.Name(), c.purchased, ChargedOf(c.loads))
		}
		before := s.Clone()
		c.Admit(s, order, 1)
		for i := range order {
			if s.Choice(i) != before.Choice(i) {
				t.Fatalf("%s: a pass after the fixpoint moved request %d", net.Name(), i)
			}
		}
	}
}
