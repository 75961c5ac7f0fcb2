package sched

import (
	"fmt"
	"math"
	"slices"
)

// Declined marks a request that is not served by a schedule.
const Declined = -1

// ceilEps guards integer ceilings against floating-point noise so that a
// load of 2+1e-10 charges 2 units, not 3.
const ceilEps = 1e-9

// Schedule assigns each request of an instance either a candidate path
// index or Declined.
type Schedule struct {
	inst   *Instance
	choice []int
}

// NewSchedule returns a schedule over inst with every request declined.
func NewSchedule(inst *Instance) *Schedule {
	s := new(Schedule)
	s.Reset(inst)
	return s
}

// Reset makes s the schedule NewSchedule(inst) returns, in s's array.
// Reset(nil) drops s's instance and keeps only the array.
func (s *Schedule) Reset(inst *Instance) {
	s.inst = inst
	if inst == nil {
		s.choice = s.choice[:0]
		return
	}
	s.choice = slices.Grow(s.choice[:0], inst.NumRequests())[:inst.NumRequests()]
	for i := range s.choice {
		s.choice[i] = Declined
	}
}

// CopyFrom makes s a copy of o, in s's array.
func (s *Schedule) CopyFrom(o *Schedule) {
	s.inst = o.inst
	s.choice = append(s.choice[:0], o.choice...)
}

// Instance returns the schedule's instance.
func (s *Schedule) Instance() *Instance { return s.inst }

// Assign routes request i over its candidate path j.
func (s *Schedule) Assign(i, j int) error {
	if i < 0 || i >= len(s.choice) {
		return fmt.Errorf("sched: request index %d out of range", i)
	}
	if j < 0 || j >= s.inst.NumPaths(i) {
		return fmt.Errorf("sched: request %d has no candidate path %d", i, j)
	}
	s.choice[i] = j
	return nil
}

// Decline marks request i as not served.
func (s *Schedule) Decline(i int) {
	s.choice[i] = Declined
}

// Choice returns the path index of request i, or Declined.
func (s *Schedule) Choice(i int) int { return s.choice[i] }

// Accepted returns the indices of served requests, in order.
func (s *Schedule) Accepted() []int { return s.AcceptedInto(nil) }

// AcceptedInto is Accepted written into buf's array.
func (s *Schedule) AcceptedInto(buf []int) []int {
	out := buf[:0]
	for i, c := range s.choice {
		if c != Declined {
			out = append(out, i)
		}
	}
	return out
}

// NumAccepted returns the number of served requests.
func (s *Schedule) NumAccepted() int {
	n := 0
	for _, c := range s.choice {
		if c != Declined {
			n++
		}
	}
	return n
}

// Clone returns an independent copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{inst: s.inst, choice: slices.Clone(s.choice)}
}

// Loads returns the per-link, per-slot bandwidth load implied by the
// schedule: loads[e][t] = Σ_i r_{i,t}·x_{i,j}·I_{i,j,e}.
func (s *Schedule) Loads() [][]float64 {
	return s.LoadsInto(nil)
}

// LoadsInto is Loads with buffer reuse: loads is reshaped to NumLinks
// rows of Slots columns in its own arrays where they are large enough,
// zeroed and refilled. The accumulation order is identical to Loads, so
// the results are bit-for-bit the same; the returned matrix is the one
// that was filled. Hot callers that recompute loads repeatedly (the
// profit pruner, the experiment harness) use it to avoid re-allocating
// per call.
func (s *Schedule) LoadsInto(loads [][]float64) [][]float64 {
	loads = ZeroLoads(loads, s.inst.Network().NumLinks(), s.inst.Slots())
	for i, c := range s.choice {
		if c == Declined {
			continue
		}
		r := s.inst.Request(i)
		for _, e := range s.inst.Path(i, c).Links {
			for t := r.Start; t <= r.End; t++ {
				loads[e][t] += r.Rate
			}
		}
	}
	return loads
}

// ZeroLoads returns buf reshaped to a links × slots matrix of zeros,
// reusing its arrays where they are large enough.
func ZeroLoads(buf [][]float64, links, slots int) [][]float64 {
	buf = slices.Grow(buf[:0], links)[:links]
	for e := range buf {
		buf[e] = slices.Grow(buf[e][:0], slots)[:slots]
		clear(buf[e])
	}
	return buf
}

// ChargedOf returns the integer bandwidth purchase implied by per-link
// loads: the ceiling of each link's peak. It is the loads→charging step
// of ChargedBandwidth, split out so callers holding a loads matrix can
// avoid recomputing it.
func ChargedOf(loads [][]float64) []int { return ChargedInto(nil, loads) }

// ChargedInto is ChargedOf written into buf's array.
func ChargedInto(buf []int, loads [][]float64) []int {
	charged := slices.Grow(buf[:0], len(loads))[:len(loads)]
	for e, ts := range loads {
		var peak float64
		for _, v := range ts {
			if v > peak {
				peak = v
			}
		}
		charged[e] = CeilUnits(peak)
	}
	return charged
}

// ChargedBandwidth returns the integer bandwidth to purchase on each
// link: the ceiling of the link's peak load over the billing cycle
// (Algorithm 1, lines 6–8).
func (s *Schedule) ChargedBandwidth() []int {
	return ChargedOf(s.Loads())
}

// CostOfCharged returns the service cost Σ_e u_e·c_e for an explicit
// integer purchase vector (indexed by link id).
func (s *Schedule) CostOfCharged(charged []int) float64 {
	var cost float64
	for e, c := range charged {
		cost += s.inst.Network().Link(e).Price * float64(c)
	}
	return cost
}

// CostWithLoads returns the service cost implied by a loads matrix (as
// produced by Loads/LoadsInto for this schedule) without allocating the
// intermediate charged vector. Peaks, ceilings and the price sum follow
// exactly the ChargedBandwidth/Cost order, so the result is bit-for-bit
// what Cost would return for the same loads.
func (s *Schedule) CostWithLoads(loads [][]float64) float64 {
	var cost float64
	for e, ts := range loads {
		var peak float64
		for _, v := range ts {
			if v > peak {
				peak = v
			}
		}
		cost += s.inst.Network().Link(e).Price * float64(CeilUnits(peak))
	}
	return cost
}

// Cost returns the service cost Σ_e u_e·c_e with c_e = ChargedBandwidth.
func (s *Schedule) Cost() float64 {
	return s.CostOfCharged(s.ChargedBandwidth())
}

// Revenue returns the service revenue Σ of accepted request values.
func (s *Schedule) Revenue() float64 {
	var rev float64
	for i, c := range s.choice {
		if c != Declined {
			rev += s.inst.Request(i).Value
		}
	}
	return rev
}

// Profit returns Revenue() − Cost().
func (s *Schedule) Profit() float64 { return s.Revenue() - s.Cost() }

// CapacityViolationError reports a link-capacity constraint violation.
type CapacityViolationError struct {
	Link     int
	Slot     int
	Load     float64
	Capacity int
}

func (e *CapacityViolationError) Error() string {
	return fmt.Sprintf("sched: link %d slot %d: load %v exceeds capacity %d", e.Link, e.Slot, e.Load, e.Capacity)
}

// FeasibleUnder checks every (link, slot) load against caps (indexed by
// link id) and returns a *CapacityViolationError for the first violation.
func (s *Schedule) FeasibleUnder(caps []int) error {
	if len(caps) != s.inst.Network().NumLinks() {
		return fmt.Errorf("sched: capacity vector has %d entries, want %d", len(caps), s.inst.Network().NumLinks())
	}
	loads := s.Loads()
	for e, ts := range loads {
		for t, v := range ts {
			if v > float64(caps[e])+ceilEps {
				return &CapacityViolationError{Link: e, Slot: t, Load: v, Capacity: caps[e]}
			}
		}
	}
	return nil
}

// UtilizationStats summarizes link utilization across a schedule:
// per-link utilization is the time-average load divided by that link's
// capacity; Max/Min/Avg aggregate across links with positive capacity.
type UtilizationStats struct {
	Max float64
	Min float64
	Avg float64
}

// Utilization computes utilization statistics under the given per-link
// capacities. Links with zero capacity are excluded; if no link has
// positive capacity the zero value is returned.
func (s *Schedule) Utilization(caps []int) UtilizationStats {
	loads := s.Loads()
	var (
		utils []float64
		sum   float64
	)
	for e, ts := range loads {
		if e >= len(caps) || caps[e] <= 0 {
			continue
		}
		var total float64
		for _, v := range ts {
			total += v
		}
		u := total / float64(s.inst.Slots()) / float64(caps[e])
		utils = append(utils, u)
		sum += u
	}
	if len(utils) == 0 {
		return UtilizationStats{}
	}
	st := UtilizationStats{Max: math.Inf(-1), Min: math.Inf(1)}
	for _, u := range utils {
		if u > st.Max {
			st.Max = u
		}
		if u < st.Min {
			st.Min = u
		}
	}
	st.Avg = sum / float64(len(utils))
	return st
}

// ChargedUtilization is Utilization measured against the schedule's own
// charged bandwidth — how well the purchased bandwidth is used.
func (s *Schedule) ChargedUtilization() UtilizationStats {
	return s.Utilization(s.ChargedBandwidth())
}

// CeilUnits rounds a non-negative bandwidth amount up to whole units,
// absorbing floating-point noise within ceilEps.
func CeilUnits(x float64) int {
	if x <= 0 {
		return 0
	}
	return int(math.Ceil(x - ceilEps))
}
