package main

import (
	"context"
	"fmt"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/online"
	"metis/internal/sched"
	"metis/internal/serve"
	"metis/internal/solvectx"
)

// The traced policies split a tick below the program's serve.solve
// span without touching the program: each is a line-for-line
// transcription of the serve policy it stands in for, over the same
// public functions, with a span around each call into a layer. A
// traced run is only accepted when its decisions equal the untraced
// run's (checked per cycle on the synchronous workloads, and by
// TestTracedPolicyMatchesIncremental).

// replanBudgetFrac mirrors serve's unexported constant of that name.
const replanBudgetFrac = 0.25

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// tracedGreedy transcribes serve.GreedyPolicy.
type tracedGreedy struct{ tr *memTracer }

func (*tracedGreedy) Name() string { return "greedy" }
func (*tracedGreedy) Reset()       {}

func (p *tracedGreedy) Decide(ctx context.Context, led *serve.Ledger, inst *sched.Instance, _, slot int) (*online.State, error) {
	defer p.tr.begin(trackTick, "policy.decide")()
	end := p.tr.begin(trackTick, "online.new_state")
	st, err := online.NewStateAt(ctx, inst, led.Purchased(), led.Loads())
	end()
	if err != nil {
		return nil, err
	}
	end = p.tr.begin(trackTick, "online.greedy")
	err = (online.Greedy{}).DecideBatch(st, slot, allIndices(inst.NumRequests()))
	end()
	if err != nil {
		return nil, err
	}
	return st, nil
}

// tracedMetis transcribes serve.MetisPolicy in core.ReplanIncremental
// mode. It keeps its own replan counters: serve's are unexported, so a
// traced run's scorecard shows no replans.
type tracedMetis struct {
	replanEvery int
	cfg         core.Config
	tr          *memTracer

	rp         *core.Replanner
	plan       []int
	lastReplan int
	havePlan   bool

	replans, replansDegraded int
}

func newTracedMetis(replanEvery int, tr *memTracer) *tracedMetis {
	cfg := core.Config{Seed: policySeed, Tracer: tr}
	// The refinement round reads its tracer from the LP options, not
	// from Config.Tracer.
	cfg.LP.Tracer = tr
	return &tracedMetis{replanEvery: replanEvery, cfg: cfg, tr: tr}
}

func (*tracedMetis) Name() string { return "metis-incremental" }

func (p *tracedMetis) Reset() {
	if p.rp != nil {
		p.rp.Reset()
	}
	p.plan, p.havePlan, p.lastReplan = nil, false, 0
}

func (p *tracedMetis) Decide(ctx context.Context, led *serve.Ledger, inst *sched.Instance, epoch, slot int) (*online.State, error) {
	defer p.tr.begin(trackTick, "policy.decide")()
	if p.rp == nil {
		p.rp = core.NewReplanner(inst.Network(), inst.Slots(), sched.DefaultPathsPerRequest, p.cfg, core.ReplanIncremental)
	}
	batch := make([]demand.Request, inst.NumRequests())
	for i := range batch {
		batch[i] = inst.Request(i)
	}
	end := p.tr.begin(trackTick, "core.observe")
	err := p.rp.Observe(batch)
	end()
	if err != nil {
		return nil, fmt.Errorf("serve: metis replan: %w", err)
	}

	due := !p.havePlan || epoch-p.lastReplan >= p.replanEvery
	if due && p.rp.NumObserved() > p.rp.NumPlanned() {
		p.lastReplan = epoch
		p.replans++
		rctx, cancel := ctx, func() {}
		if ctx != nil {
			if dl, ok := ctx.Deadline(); ok {
				share := time.Duration(float64(time.Until(dl)) * replanBudgetFrac)
				rctx, cancel = context.WithTimeout(ctx, share)
			}
		}
		end := p.tr.begin(trackTick, "core.replan")
		res, err := p.rp.Replan(rctx)
		end()
		cancel()
		switch {
		case err == nil:
			p.plan = append(p.plan[:0], res.Charged...)
			p.havePlan = true
			if res.Degraded {
				p.replansDegraded++
			}
		case solvectx.Is(err):
			p.replansDegraded++
		default:
			return nil, fmt.Errorf("serve: metis replan: %w", err)
		}
	}

	end = p.tr.begin(trackTick, "online.new_state")
	st, err := online.NewStateAt(ctx, inst, led.Purchased(), led.Loads())
	end()
	if err != nil {
		return nil, err
	}
	plan := p.plan
	if plan == nil {
		plan = led.Purchased()
	}
	adm := online.ProvisionedTAA{Plan: plan}
	end = p.tr.begin(trackTick, "core.relaxed_guide")
	adm.Guide = p.rp.RelaxedGuide(p.rp.NumObserved() - inst.NumRequests())
	end()
	if adm.Guide == nil {
		adm.Guide = make([][]float64, inst.NumRequests())
	}
	end = p.tr.begin(trackTick, "online.guided_taa")
	err = adm.DecideBatch(st, slot, allIndices(inst.NumRequests()))
	end()
	if err != nil {
		return nil, err
	}
	return st, nil
}
