package main

import (
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/spm"
	"metis/internal/wan"
)

const (
	offlineTheta  = 4
	smallPerLarge = 10 // K=100 solves per K=1000 solve in one round
)

// offline runs the paper's pipeline: core.Solve on fresh B4 instances,
// in rounds of one large and smallPerLarge small instances. Instance i
// of a run comes from generator seed seed·1000+i; set-up builds them
// (requests and candidate paths), the timed step is the solve alone.
type offline struct {
	p     params
	tr    *memTracer
	net   *wan.Network
	cfg   core.Config
	insts []*sched.Instance
}

func (w *offline) setup(tr *memTracer) error {
	w.tr = tr
	w.net = wan.B4()
	w.cfg = core.Config{Theta: offlineTheta, Seed: policySeed, Tracer: tr.asObs()}
	// One throwaway solve pages in the solver stack, so the first timed
	// solve is not the process's first. Its instance does not depend on
	// the seed: set-up is the same work in every run.
	g, err := demand.NewGenerator(w.net, demand.DefaultGeneratorConfig(0))
	if err != nil {
		return err
	}
	reqs, err := g.GenerateN(20)
	if err != nil {
		return err
	}
	inst, err := sched.NewInstance(w.net, slots, reqs, sched.DefaultPathsPerRequest)
	if err != nil {
		return err
	}
	if _, err = core.Solve(inst, core.Config{Theta: offlineTheta, Seed: policySeed}); err != nil {
		return err
	}
	small, large := w.p.pick(100, 40), w.p.pick(1000, 200)
	for i := 0; i < w.p.units*(smallPerLarge+1); i++ {
		k := small
		if i%(smallPerLarge+1) == 0 {
			k = large
		}
		inst, err := w.instance(i, k)
		if err != nil {
			return err
		}
		w.insts = append(w.insts, inst)
	}
	return nil
}

func (w *offline) teardown() {}

func (w *offline) instance(i, k int) (*sched.Instance, error) {
	g, err := demand.NewGenerator(w.net, demand.DefaultGeneratorConfig(w.p.seed*1000+int64(i)))
	if err != nil {
		return nil, err
	}
	reqs, err := g.GenerateN(k)
	if err != nil {
		return nil, err
	}
	return sched.NewInstance(w.net, slots, reqs, sched.DefaultPathsPerRequest)
}

func (w *offline) run() (*outcome, error) {
	o := newOutcome()
	o.probe = capture(w.net, w.insts[0].Requests())
	var smallMs, largeMs samples
	for i, inst := range w.insts {
		k := inst.NumRequests()
		o.attempted++
		t0 := time.Now()
		res, err := core.Solve(inst, w.cfg)
		el := time.Since(t0)
		o.step(el)
		if err != nil || res.Degraded {
			o.failed++
			o.fail("solve %d (K=%d): err=%v degraded=%v", i, k, err, err == nil && res.Degraded)
			continue
		}
		if i%(smallPerLarge+1) == 0 {
			largeMs.add(el)
		} else {
			smallMs.add(el)
		}
		if err := spm.CheckFeasible(res.Schedule, res.Charged); err != nil {
			o.failed++
			o.fail("solve %d: schedule infeasible: %v", i, err)
		}
		if err := spm.CheckProfit(res.Schedule, res.Profit, 1e-6); err != nil {
			o.failed++
			o.fail("solve %d: %v", i, err)
		}
		o.decided += k
		o.offered += k
		o.profit += res.Profit
		o.cycles = append(o.cycles, cycleSum{Profit: res.Profit, Accepted: res.Schedule.NumAccepted(), Decided: k})
	}
	// The latency of this workload is the small solve: it has the
	// samples for a tail. The large solve is in decisions_per_s (about
	// two thirds of the wall) and reported by name.
	o.lat = smallMs
	o.info["solve_k100_ms"] = metric{smallMs.sorted().quantile(0.5), "ms"}
	o.info["solve_k1000_ms"] = metric{largeMs.sorted().quantile(0.5), "ms"}
	return o, nil
}
