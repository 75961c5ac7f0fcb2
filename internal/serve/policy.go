package serve

import (
	"context"
	"fmt"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/online"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/wan"
)

// Policy decides one epoch's arrival batch. inst holds the batch's
// requests (instance index k ↔ batch position k, windows already
// clamped to start no earlier than the deciding slot) and led is the
// cycle ledger the decision must respect. Decide returns an
// online.State seeded from the ledger whose schedule carries the
// accept/route choices; the Server commits accepted requests back into
// the ledger afterwards.
//
// Policies are invoked only from the Server's single epoch goroutine,
// so implementations may keep unsynchronized cross-epoch state (the
// Metis policy caches its capacity plan this way). A ctx expiry inside
// a solver surfaces as an error matching solvectx.ErrCanceled/
// ErrDeadline; the Server then degrades the epoch to the greedy
// fallback rather than stalling the tick loop.
type Policy interface {
	Name() string
	Decide(ctx context.Context, led *Ledger, inst *sched.Instance, epoch, slot int) (*online.State, error)
	// Reset is called when the billing cycle wraps (the ledger has been
	// cleared); policies drop any cycle-scoped state.
	Reset()
}

// NewPolicy builds a policy by name:
//
//	greedy             — buy-as-you-go marginal-cost admission (online.Greedy);
//	                     also the empty name
//	taa                — per-epoch TAA admission into a fixed provisioned plan
//	metis-incremental  — periodic replans that refine a persistent warm model
//	                     of the cycle's observed workload to (re)plan
//	                     capacity, guided TAA admission in between
//
// plan provisions the taa policy (units per link; nil means admit only
// into capacity bought by earlier epochs). replanEvery is
// metis-incremental's replan period in epochs (≤0 means every epoch).
func NewPolicy(name string, plan []int, replanEvery int, cfg core.Config) (Policy, error) {
	switch name {
	case "greedy", "":
		return GreedyPolicy{}, nil
	case "taa":
		return &TAAPolicy{Plan: plan}, nil
	case "metis-incremental":
		if replanEvery <= 0 {
			replanEvery = 1
		}
		return &MetisPolicy{ReplanEvery: replanEvery, Config: cfg}, nil
	default:
		return nil, fmt.Errorf("serve: unknown policy %q (have: greedy, taa, metis-incremental)", name)
	}
}

// replanBudgetFrac is the share of the remaining tick budget a metis
// replan may consume; the rest stays reserved for the admission pass.
// Admission costs ~50µs/request on the reference box, so at saturation
// (queue-limit-sized batches) the reservation must leave room for the
// whole claimed batch.
const replanBudgetFrac = 0.25

// admit seeds an online.State over inst with the ledger's committed
// loads and purchases, and lets p decide the whole batch into it.
func admit(ctx context.Context, led *Ledger, inst *sched.Instance, slot int, p online.Policy) (*online.State, error) {
	st, err := online.NewStateAt(ctx, inst, led.Purchased(), led.Loads())
	if err != nil {
		return nil, err
	}
	batch := make([]int, inst.NumRequests())
	for i := range batch {
		batch[i] = i
	}
	if err := p.DecideBatch(st, slot, batch); err != nil {
		return nil, err
	}
	return st, nil
}

// GreedyPolicy is buy-as-you-go marginal-cost admission: each request
// is accepted on its cheapest-marginal-cost path iff its value exceeds
// the price of the extra units it forces. It never solves an LP, so a
// tick budget cannot expire inside it; it doubles as the Server's
// degradation fallback.
type GreedyPolicy struct{}

// Name implements Policy.
func (GreedyPolicy) Name() string { return "greedy" }

// Reset implements Policy.
func (GreedyPolicy) Reset() {}

// Decide implements Policy.
func (GreedyPolicy) Decide(ctx context.Context, led *Ledger, inst *sched.Instance, _, slot int) (*online.State, error) {
	return admit(ctx, led, inst, slot, online.Greedy{})
}

// TAAPolicy admits each epoch batch with the paper's BL-SPM machinery
// (TAA) against the residual of a provisioned capacity plan: revenue is
// maximized under what has already been bought, and nothing new is
// purchased beyond the plan.
type TAAPolicy struct {
	// Plan is the upfront per-link provision in units; nil admits only
	// into capacity purchased by earlier epochs.
	Plan []int
}

// Name implements Policy.
func (*TAAPolicy) Name() string { return "taa" }

// Reset implements Policy.
func (*TAAPolicy) Reset() {}

// Decide implements Policy.
func (p *TAAPolicy) Decide(ctx context.Context, led *Ledger, inst *sched.Instance, _, slot int) (*online.State, error) {
	plan := p.Plan
	if plan == nil {
		plan = led.Purchased()
	}
	return admit(ctx, led, inst, slot, online.ProvisionedTAA{Plan: plan})
}

// MetisPolicy (metis-incremental) periodically replans capacity over
// every request observed this cycle, and admits each epoch's batch with
// TAA against the plan's residual. The replan machinery is a
// core.Replanner in core.ReplanIncremental mode: it keeps a persistent
// warm model across epochs — arrivals fold into the live
// spm.BLSession as appended columns, the warm lp.Basis survives between
// replans, and each replan runs one incumbent-refinement round instead
// of a cold alternation. Model-shape incompatibilities and solver errors
// fall back to a cold full solve (the fallback-ladder discipline).
//
// Replans run under the epoch's tick deadline: an overrun degrades to
// the best incumbent found so far instead of stalling the tick loop,
// and the previous plan is kept when the degraded replan found nothing.
// Across epochs the policy reuses the previous plan outright whenever
// no new requests have arrived, which skips the replan entirely.
type MetisPolicy struct {
	// ReplanEvery is the replan period in epochs (1 = every epoch).
	ReplanEvery int
	// Config parameterizes the replan (θ, τ, seeds, LP options).
	Config core.Config

	rp         *core.Replanner
	plan       []int // current capacity plan
	lastReplan int   // epoch of the last replan attempt
	havePlan   bool

	// This policy's replans and degraded replans, beside the
	// process-wide counters: a tick's scorecard row bills only its own
	// server's policy.
	replans, replansDegraded int64
}

// replanCounts reports how many replans this policy has attempted and
// how many of them degraded.
func (p *MetisPolicy) replanCounts() (replans, degraded int64) {
	return p.replans, p.replansDegraded
}

// Name implements Policy.
func (p *MetisPolicy) Name() string { return "metis-incremental" }

// Reset implements Policy.
func (p *MetisPolicy) Reset() {
	if p.rp != nil {
		p.rp.Reset()
	}
	p.plan, p.havePlan, p.lastReplan = nil, false, 0
}

// Decide implements Policy.
func (p *MetisPolicy) Decide(ctx context.Context, led *Ledger, inst *sched.Instance, epoch, slot int) (*online.State, error) {
	// The replanner accumulates the cycle's workload; the plan it
	// produces is a whole-cycle provision, not a per-epoch one.
	batch := make([]demand.Request, inst.NumRequests())
	for i := range batch {
		batch[i] = inst.Request(i)
	}
	if err := p.observe(inst.Network(), inst.Slots(), batch); err != nil {
		return nil, fmt.Errorf("serve: metis replan: %w", err)
	}

	due := !p.havePlan || epoch-p.lastReplan >= p.ReplanEvery
	if due && p.rp.NumObserved() > p.rp.NumPlanned() {
		p.lastReplan = epoch
		p.replans++
		cReplans.Inc()
		// Reserve the tail of the tick budget for the admission pass:
		// the replan is an optimization, admission is the service. A
		// replan cut short returns its best incumbent (degraded) — it
		// must never starve DecideBatch into the greedy fallback.
		rctx, cancel := ctx, func() {}
		if ctx != nil {
			if dl, ok := ctx.Deadline(); ok {
				share := time.Duration(float64(time.Until(dl)) * replanBudgetFrac)
				rctx, cancel = context.WithTimeout(ctx, share)
			}
		}
		res, err := p.rp.Replan(rctx)
		cancel()
		switch {
		case err == nil:
			// A degraded replan still returns its best incumbent; adopt
			// its plan — at worst the greedy seed's purchase. Charged may
			// alias the replanner's reusable buffer, so copy.
			p.plan = append(p.plan[:0], res.Charged...)
			p.havePlan = true
			if res.Degraded {
				p.replansDegraded++
				cReplansDegraded.Inc()
			}
		case solvectx.Is(err):
			// The budget expired before any incumbent existed; keep the
			// previous plan (or none) and let TAA admit into it.
			p.replansDegraded++
			cReplansDegraded.Inc()
		default:
			return nil, fmt.Errorf("serve: metis replan: %w", err)
		}
	}

	plan := p.plan
	if plan == nil {
		plan = led.Purchased()
	}
	// The persistent model's relaxation already prices every observed
	// request — including this batch, observed above — against the cycle
	// plan. Handing it to admission skips the per-batch cold LP (the
	// dominant tick cost at saturation). Positions the relaxation has not
	// covered yet (arrivals since the last refinement, or a whole cycle
	// right after a wrap) get zero weight, which TAA treats as
	// fractionally declined and recovers through its greedy/augmentation
	// stages. The zero-fill is deliberate: admission NEVER falls back to
	// the cold batch LP, so its cost stays bounded at saturation — an
	// unbounded admission solve under a tight tick budget is exactly what
	// degrades epochs.
	adm := online.ProvisionedTAA{Plan: plan, Guide: p.rp.RelaxedGuide(p.rp.NumObserved() - inst.NumRequests())}
	if adm.Guide == nil {
		adm.Guide = make([][]float64, inst.NumRequests())
	}
	return admit(ctx, led, inst, slot, adm)
}

// replayPolicy is implemented by policies that participate in WAL
// recovery: logged ticks are *redone* through the live commitTick (a
// budget-cut replan is not reproducible from inputs), so once per
// ApplyLog pass the policy observes the replayed live batches and
// adopts the last logged plan delta. After replay the decision-relevant
// state (seen workload, plan, replan clock) matches the live run; the
// warm incumbent and relaxation are caches the next replan rebuilds.
type replayPolicy interface {
	observe(net *wan.Network, slots int, batch []demand.Request) error
	applyReplayDelta(d *walPolicyDelta)
	replayDelta() *walPolicyDelta
}

// newReplanner builds the policy's persistent replan model over net.
func (p *MetisPolicy) newReplanner(net *wan.Network, slots int) *core.Replanner {
	return core.NewReplanner(net, slots, sched.DefaultPathsPerRequest, p.Config, core.ReplanIncremental)
}

// observe folds a batch into the cycle's observed workload (building
// the replan model on first use); a replayed tick needs only this.
func (p *MetisPolicy) observe(net *wan.Network, slots int, batch []demand.Request) error {
	if p.rp == nil {
		p.rp = p.newReplanner(net, slots)
	}
	return p.rp.Observe(batch)
}

func (p *MetisPolicy) replayDelta() *walPolicyDelta {
	return &walPolicyDelta{
		Name:       p.Name(),
		Plan:       append([]int(nil), p.plan...),
		HavePlan:   p.havePlan,
		LastReplan: p.lastReplan,
	}
}

func (p *MetisPolicy) applyReplayDelta(d *walPolicyDelta) {
	if d.Name != p.Name() {
		return
	}
	p.plan = append([]int(nil), d.Plan...)
	if len(d.Plan) == 0 && !d.HavePlan {
		p.plan = nil
	}
	p.havePlan = d.HavePlan
	p.lastReplan = d.LastReplan
}
