// Package online extends Metis to the online setting the paper leaves
// as future work: requests are not known for the whole billing cycle up
// front but arrive at their start slots, and the provider must decide
// admission and routing immediately, without knowledge of future
// requests. Purchased bandwidth is monotone — units bought in an
// earlier slot remain paid for the rest of the cycle.
//
// Three admission policies are provided:
//
//   - Greedy: buy-as-you-go marginal-cost admission (accept a request
//     iff its value exceeds the price of the extra units it forces).
//   - ProvisionedFirstFit: capacity is planned up front (e.g. with MAA
//     on a forecast workload) and requests are admitted first-fit into
//     the residual capacity — an online Amoeba.
//   - ProvisionedTAA: capacity is planned up front and each slot's
//     arrival batch is scheduled by TAA against the time-varying
//     residual capacity, reusing the paper's BL-SPM machinery online.
package online

import (
	"context"
	"fmt"
	"math"
	"sort"

	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/spm"
	"metis/internal/taa"
)

// State is the provider's evolving view during a simulation.
type State struct {
	inst      *sched.Instance
	purchased []int       // units bought so far, per link (monotone)
	loads     [][]float64 // committed load per (link, slot)
	schedule  *sched.Schedule
	ctx       context.Context // nil outside SimulateCtx
}

// NewState returns a fresh provider state over inst: nothing purchased,
// nothing committed, an all-declined schedule. ctx (which may be nil) is
// threaded into policy-run solvers via Context. SimulateCtx builds its
// state this way; external drivers (e.g. metisd's epoch loop) construct
// one per decision batch.
func NewState(ctx context.Context, inst *sched.Instance) *State {
	st := &State{
		inst:      inst,
		purchased: make([]int, inst.Network().NumLinks()),
		loads:     make([][]float64, inst.Network().NumLinks()),
		schedule:  sched.NewSchedule(inst),
		ctx:       ctx,
	}
	for e := range st.loads {
		st.loads[e] = make([]float64, inst.Slots())
	}
	return st
}

// NewStateAt is NewState seeded with prior commitments: purchased units
// per link and committed load per (link, slot), both copied. It lets a
// long-running driver whose ledger outlives any single instance (metisd
// decides each epoch's arrival batch as its own instance) run the same
// policies against the capacity already committed to earlier batches.
// Shapes must match inst's network and slot count.
func NewStateAt(ctx context.Context, inst *sched.Instance, purchased []int, loads [][]float64) (*State, error) {
	links := inst.Network().NumLinks()
	if len(purchased) != links {
		return nil, fmt.Errorf("online: purchased has %d links, want %d", len(purchased), links)
	}
	if len(loads) != links {
		return nil, fmt.Errorf("online: loads has %d links, want %d", len(loads), links)
	}
	st := NewState(ctx, inst)
	copy(st.purchased, purchased)
	for e := range loads {
		if len(loads[e]) != inst.Slots() {
			return nil, fmt.Errorf("online: loads[%d] has %d slots, want %d", e, len(loads[e]), inst.Slots())
		}
		copy(st.loads[e], loads[e])
	}
	return st, nil
}

// Context returns the simulation's context (nil when the run was not
// started through SimulateCtx); policies that run solvers thread it in
// so a mid-batch solve stops promptly too.
func (st *State) Context() context.Context { return st.ctx }

// Instance returns the underlying instance.
func (st *State) Instance() *sched.Instance { return st.inst }

// Schedule returns the live schedule the state is building. Callers
// must treat it as read-only; commitments go through Commit.
func (st *State) Schedule() *sched.Schedule { return st.schedule }

// Loads returns a copy of the committed per-(link, slot) load matrix.
func (st *State) Loads() [][]float64 {
	out := make([][]float64, len(st.loads))
	for e := range st.loads {
		out[e] = append([]float64(nil), st.loads[e]...)
	}
	return out
}

// Purchased returns a copy of the per-link purchased units.
func (st *State) Purchased() []int {
	out := make([]int, len(st.purchased))
	copy(out, st.purchased)
	return out
}

// Residual returns the uncommitted capacity per (link, slot):
// purchased − load, clamped at zero.
func (st *State) Residual() [][]float64 {
	out := make([][]float64, len(st.loads))
	for e := range st.loads {
		out[e] = make([]float64, len(st.loads[e]))
		for t, v := range st.loads[e] {
			r := float64(st.purchased[e]) - v
			if r < 0 {
				r = 0
			}
			out[e][t] = r
		}
	}
	return out
}

// MarginalCost prices the extra units needed to route request i on its
// candidate path j given current loads and purchases.
func (st *State) MarginalCost(i, j int) float64 {
	r := st.inst.Request(i)
	var cost float64
	for _, e := range st.inst.Path(i, j).Links {
		var peak float64
		for t := r.Start; t <= r.End; t++ {
			if v := st.loads[e][t] + r.Rate; v > peak {
				peak = v
			}
		}
		if c := sched.CeilUnits(peak); c > st.purchased[e] {
			cost += float64(c-st.purchased[e]) * st.inst.Network().Link(e).Price
		}
	}
	return cost
}

// FitsResidual reports whether request i fits path j without any new
// purchase.
func (st *State) FitsResidual(i, j int) bool {
	const eps = 1e-9
	r := st.inst.Request(i)
	for _, e := range st.inst.Path(i, j).Links {
		for t := r.Start; t <= r.End; t++ {
			if st.loads[e][t]+r.Rate > float64(st.purchased[e])+eps {
				return false
			}
		}
	}
	return true
}

// Commit accepts request i on path j, buying any extra units needed.
func (st *State) Commit(i, j int) error {
	r := st.inst.Request(i)
	for _, e := range st.inst.Path(i, j).Links {
		var peak float64
		for t := r.Start; t <= r.End; t++ {
			st.loads[e][t] += r.Rate
			if st.loads[e][t] > peak {
				peak = st.loads[e][t]
			}
		}
		if c := sched.CeilUnits(peak); c > st.purchased[e] {
			st.purchased[e] = c
		}
	}
	return st.schedule.Assign(i, j)
}

// Policy decides one arrival batch. batch holds instance indices of the
// requests arriving this slot; decisions are made through the State.
type Policy interface {
	Name() string
	DecideBatch(st *State, slot int, batch []int) error
}

// SlotStats records one slot of a simulation.
type SlotStats struct {
	Slot     int
	Arrived  int
	Accepted int
}

// Result summarizes an online simulation.
type Result struct {
	// Schedule holds the final acceptance and routing decisions.
	Schedule *sched.Schedule
	// Profit, Revenue, Cost: cost is Σ price·purchased at cycle end.
	Profit, Revenue, Cost float64
	// Purchased is the final per-link bandwidth purchase.
	Purchased []int
	// PerSlot is the arrival/acceptance trace.
	PerSlot []SlotStats
}

// Simulate feeds inst's requests to the policy slot by slot (a request
// arrives at its start slot) and returns the final outcome.
func Simulate(inst *sched.Instance, p Policy) (*Result, error) {
	return SimulateCtx(nil, inst, p)
}

// SimulateCtx is Simulate under a context, checked before every slot's
// decision batch (and threaded into policy-run solvers via
// State.Context). A partial cycle has no meaningful profit accounting,
// so an expiry aborts the simulation with an error matching
// solvectx.ErrCanceled/ErrDeadline rather than degrading. A nil ctx
// reproduces Simulate exactly.
func SimulateCtx(ctx context.Context, inst *sched.Instance, p Policy) (*Result, error) {
	st := NewState(ctx, inst)

	batches := make([][]int, inst.Slots())
	for i := 0; i < inst.NumRequests(); i++ {
		t := inst.Request(i).Start
		batches[t] = append(batches[t], i)
	}

	res := &Result{}
	for t := 0; t < inst.Slots(); t++ {
		if err := solvectx.Err(ctx); err != nil {
			return nil, fmt.Errorf("online: %s: slot %d: %w", p.Name(), t, err)
		}
		acceptedBefore := st.schedule.NumAccepted()
		if len(batches[t]) > 0 {
			if err := p.DecideBatch(st, t, batches[t]); err != nil {
				return nil, fmt.Errorf("online: %s: slot %d: %w", p.Name(), t, err)
			}
		}
		res.PerSlot = append(res.PerSlot, SlotStats{
			Slot:     t,
			Arrived:  len(batches[t]),
			Accepted: st.schedule.NumAccepted() - acceptedBefore,
		})
	}

	res.Schedule = st.schedule
	res.Revenue = st.schedule.Revenue()
	for e, units := range st.purchased {
		res.Cost += float64(units) * inst.Network().Link(e).Price
	}
	res.Profit = res.Revenue - res.Cost
	res.Purchased = st.Purchased()
	return res, nil
}

// Greedy is buy-as-you-go marginal-cost admission: within a batch,
// requests are handled in descending value order, each on the path with
// the cheapest marginal purchase, accepted iff value exceeds it.
type Greedy struct{}

// Name implements Policy.
func (Greedy) Name() string { return "greedy" }

// DecideBatch implements Policy.
func (Greedy) DecideBatch(st *State, _ int, batch []int) error {
	inst := st.inst
	ordered := append([]int(nil), batch...)
	sort.SliceStable(ordered, func(a, b int) bool {
		return inst.Request(ordered[a]).Value > inst.Request(ordered[b]).Value
	})
	for _, i := range ordered {
		bestPath, bestCost := -1, math.Inf(1)
		for j := 0; j < inst.NumPaths(i); j++ {
			if c := st.MarginalCost(i, j); c < bestCost {
				bestPath, bestCost = j, c
			}
		}
		if bestPath == -1 || inst.Request(i).Value <= bestCost {
			continue
		}
		if err := st.Commit(i, bestPath); err != nil {
			return err
		}
	}
	return nil
}

// ProvisionedFirstFit admits into a fixed upfront capacity plan
// first-fit (an online Amoeba). The plan's cost is paid regardless of
// utilization; Simulate accounts it because the plan is committed via
// Provision before the run.
type ProvisionedFirstFit struct {
	// Plan is the upfront per-link purchase in units.
	Plan []int
}

// Name implements Policy.
func (ProvisionedFirstFit) Name() string { return "provisioned-firstfit" }

// DecideBatch implements Policy.
func (p ProvisionedFirstFit) DecideBatch(st *State, slot int, batch []int) error {
	if err := provision(st, p.Plan, slot); err != nil {
		return err
	}
	for _, i := range batch {
		for j := 0; j < st.inst.NumPaths(i); j++ {
			if st.FitsResidual(i, j) {
				if err := st.Commit(i, j); err != nil {
					return err
				}
				break
			}
		}
	}
	return nil
}

// ProvisionedTAA admits each batch with TAA against the time-varying
// residual capacity of a fixed upfront plan.
type ProvisionedTAA struct {
	// Plan is the upfront per-link purchase in units.
	Plan []int
	// Guide, when non-nil, supplies a pre-solved fractional relaxation
	// for the batch (Guide[k] holds path weights for batch[k]; nil
	// entries mean "not covered", treated as fractionally declined).
	// With a guide the internal LP relaxation solve is skipped — TAA's
	// estimator walk runs off the supplied weights, and its hard
	// feasibility filter keeps the output feasible regardless of the
	// guide's quality. The metis-incremental policy hands its persistent
	// replan model's relaxation here, which removes the dominant
	// per-batch cost (the cold LP) from the admission path.
	Guide [][]float64
}

// Name implements Policy.
func (ProvisionedTAA) Name() string { return "provisioned-taa" }

// DecideBatch implements Policy.
func (p ProvisionedTAA) DecideBatch(st *State, slot int, batch []int) error {
	if err := provision(st, p.Plan, slot); err != nil {
		return err
	}
	// Presolve: a request that cannot fit the residual on any candidate
	// path even in isolation can never be admitted — TAA's hard
	// feasibility filter would reject every option. Dropping it up front
	// shrinks the LP relaxation and the estimator walk to the actual
	// contenders, which is what keeps saturated epochs (full plan, big
	// batch) inside the tick budget.
	if p.Guide != nil && len(p.Guide) != len(batch) {
		return fmt.Errorf("online: guide covers %d requests, batch has %d", len(p.Guide), len(batch))
	}
	feasible := batch[:0:0]
	var guide [][]float64
	for k, i := range batch {
		for j := 0; j < st.inst.NumPaths(i); j++ {
			if st.FitsResidual(i, j) {
				feasible = append(feasible, i)
				if p.Guide != nil {
					g := p.Guide[k]
					if g == nil {
						g = make([]float64, st.inst.NumPaths(i))
					}
					guide = append(guide, g)
				}
				break
			}
		}
	}
	if len(feasible) == 0 {
		return nil
	}
	sub, err := st.inst.Subset(feasible)
	if err != nil {
		return err
	}
	opts := taa.Options{Ctx: st.ctx}
	if guide != nil {
		opts.Relaxed = &spm.RelaxedBL{X: guide}
	}
	res, err := taa.SolveVar(sub, st.Residual(), opts)
	if err != nil {
		return err
	}
	for k, i := range feasible {
		if c := res.Schedule.Choice(k); c != sched.Declined {
			if err := st.Commit(i, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// provision installs the upfront plan on the first decided slot so its
// cost is accounted even if little is used.
func provision(st *State, plan []int, slot int) error {
	if len(plan) != len(st.purchased) {
		return fmt.Errorf("online: plan has %d links, want %d", len(plan), len(st.purchased))
	}
	for e, units := range plan {
		if units > st.purchased[e] {
			st.purchased[e] = units
		}
	}
	_ = slot
	return nil
}
