// Package online extends Metis to the online setting the paper leaves
// as future work: requests are not known for the whole billing cycle up
// front but arrive at their start slots, and the provider must decide
// admission and routing immediately, without knowledge of future
// requests. Purchased bandwidth is monotone — units bought in an
// earlier slot remain paid for the rest of the cycle.
//
// Two admission policies are provided:
//
//   - Greedy: buy-as-you-go marginal-cost admission (accept a request
//     iff its value exceeds the price of the extra units it forces).
//   - ProvisionedTAA: capacity is planned up front and each slot's
//     arrival batch is scheduled by TAA against the time-varying
//     residual capacity, reusing the paper's BL-SPM machinery online.
//
// The package decides one batch at a time; the loop that feeds arrivals
// slot by slot is serve.Server (its tick, or RunCycles for a closed
// loop over whole cycles).
package online

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"metis/internal/lp"
	"metis/internal/sched"
	"metis/internal/spm"
	"metis/internal/taa"
)

// State is the provider's view while one arrival batch is decided.
type State struct {
	inst     *sched.Instance
	capacity *sched.Capacity // committed loads and purchased units
	schedule *sched.Schedule
	ctx      context.Context // may be nil: never canceled
}

// NewState returns a fresh provider state over inst: nothing purchased,
// nothing committed, an all-declined schedule. ctx (which may be nil) is
// threaded into the solves the policies run, so a mid-batch solve stops
// promptly. Drivers such as serve.Server's epoch tick construct one per
// decision batch.
func NewState(ctx context.Context, inst *sched.Instance) *State {
	return &State{
		inst:     inst,
		capacity: sched.NewCapacity(inst.Network(), inst.Slots()),
		schedule: sched.NewSchedule(inst),
		ctx:      ctx,
	}
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
	for e := range loads {
		if len(loads[e]) != inst.Slots() {
			return nil, fmt.Errorf("online: loads[%d] has %d slots, want %d", e, len(loads[e]), inst.Slots())
		}
	}
	held := sched.CapacityOf(inst.Network(), loads, purchased).Clone()
	return &State{inst: inst, capacity: held, schedule: sched.NewSchedule(inst), ctx: ctx}, nil
}

// Schedule returns the live schedule the state is building. Callers
// must treat it as read-only; commitments go through Commit.
func (st *State) Schedule() *sched.Schedule { return st.schedule }

// Loads returns a copy of the committed per-(link, slot) load matrix.
func (st *State) Loads() [][]float64 { return st.capacity.Loads() }

// Purchased returns a copy of the per-link purchased units.
func (st *State) Purchased() []int { return st.capacity.Purchased() }

// Residual returns the uncommitted capacity per (link, slot):
// purchased − load, clamped at zero.
func (st *State) Residual() [][]float64 { return st.capacity.Residual() }

// Commit accepts request i on path j, buying any extra units needed.
func (st *State) Commit(i, j int) error {
	st.capacity.Commit(st.inst.Request(i), st.inst.Path(i, j).Links)
	return st.schedule.Assign(i, j)
}

// Policy decides one arrival batch. batch holds instance indices of the
// requests arriving this slot; decisions are made through the State.
type Policy interface {
	DecideBatch(st *State, slot int, batch []int) error
}

// Greedy is buy-as-you-go marginal-cost admission: within a batch,
// requests are handled in descending value order, each on the path with
// the cheapest marginal purchase, accepted iff value exceeds it.
type Greedy struct{}

// DecideBatch implements Policy: one pass of the shared admission
// loop over the batch in descending value order, ties in batch order.
// Sorting (value, batch position) keys gives exactly the stable order
// without a reflection-based stable sort.
func (Greedy) DecideBatch(st *State, _ int, batch []int) error {
	type key struct {
		value float64
		pos   int
	}
	keys := make([]key, len(batch))
	for k, i := range batch {
		keys[k] = key{st.inst.Request(i).Value, k}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(b.value, a.value); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	ordered := make([]int, len(batch))
	for k, kk := range keys {
		ordered[k] = batch[kk.pos]
	}
	st.capacity.Admit(st.schedule, ordered, 1)
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

// DecideBatch implements Policy.
func (p ProvisionedTAA) DecideBatch(st *State, _ int, batch []int) error {
	if len(p.Plan) != st.inst.Network().NumLinks() {
		return fmt.Errorf("online: plan has %d links, want %d", len(p.Plan), st.inst.Network().NumLinks())
	}
	st.capacity.Provision(p.Plan)
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
			if st.capacity.Fits(st.inst.Request(i), st.inst.Path(i, j).Links) {
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
	opts := taa.Options{LP: lp.Options{Ctx: st.ctx}}
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
