package exp

import (
	"strconv"

	"metis/internal/baseline"
	"metis/internal/lp"
	"metis/internal/maa"
	"metis/internal/opt"
	"metis/internal/spm"
	"metis/internal/stats"
	"metis/internal/taa"
	"metis/internal/wan"
)

// Fig4a regenerates the MAA-vs-MinCost service cost sweep on B4. Both
// schedulers serve every request; lower is better.
func Fig4a(cfg Config) (*Figure, error) {
	fig := &Figure{
		ID: "fig4a", Title: "Service cost vs request count (B4)", XLabel: "K",
		Series: []string{"MAA", "MinCost", "LP bound", "MinCost/MAA"},
	}
	// The sweep shares one RNG across points, so the rounding uniforms
	// of every point are pre-drawn here in sweep order — one block of
	// MAARounds×k per point, exactly what each maa.Solve will consume —
	// making the points independent of execution order.
	rng := stats.NewRNG(cfg.Seed)
	rounds := cfg.MAARounds
	if rounds <= 0 {
		rounds = 1
	}
	blocks := make([][]float64, len(cfg.Fig4aKs))
	for p, k := range cfg.Fig4aKs {
		block := make([]float64, rounds*k)
		for i := range block {
			block[i] = rng.Float64()
		}
		blocks[p] = block
	}

	type row struct{ maaCost, mcCost, lpCost float64 }
	rows := make([]row, len(cfg.Fig4aKs))
	err := forEachPoint(len(cfg.Fig4aKs), cfg.Parallel, func(p int) error {
		inst, err := buildInstance(cfg, wan.B4(), cfg.Fig4aKs[p])
		if err != nil {
			return err
		}
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		res, err := maa.Solve(inst, maa.Options{LP: lp.Options{Ctx: ctx}, Rounds: cfg.MAARounds, Uniforms: blocks[p]})
		if err != nil {
			return err
		}
		mc, err := baseline.MinCost(inst)
		if err != nil {
			return err
		}
		rows[p] = row{maaCost: res.Cost, mcCost: mc.Cost(), lpCost: res.Relaxed.Cost}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, k := range cfg.Fig4aKs {
		r := rows[p]
		fig.AddRow(strconv.Itoa(k), r.maaCost, r.mcCost, r.lpCost, r.mcCost/r.maaCost)
	}
	return fig, nil
}

// Fig4b regenerates the randomized-rounding cost-ratio experiment: on
// each network, cfg.Fig4bRepeats independent roundings of the relaxed
// RL-SPM optimum, each divided by the best-known integral cost (the
// anytime OPT(RL-SPM) incumbent under the cfg.OptNodes budget). The
// paper reports this ratio always below 1.2. An incumbent costs at
// least the optimum, so every printed ratio is a lower bound on the
// ratio to the true optimum.
func Fig4b(cfg Config) (*Figure, error) {
	fig := &Figure{
		ID: "fig4b", Title: "Randomized-rounding cost ratio vs best integral cost", XLabel: "network",
		Series: []string{"mean", "p95", "max"},
	}
	nets := []*wan.Network{wan.SubB4(), wan.B4()}
	type row struct {
		name             string
		mean, p95, worst float64
		ref              *opt.Result
	}
	rows := make([]row, len(nets))
	err := forEachPoint(len(nets), cfg.Parallel, func(p int) error {
		net := nets[p]
		inst, err := buildInstance(cfg, net, cfg.Fig4bK)
		if err != nil {
			return err
		}
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		rel, err := spm.SolveRLRelaxation(inst, lp.Options{Ctx: ctx})
		if err != nil {
			return err
		}
		ref, err := opt.RLSPM(ctx, inst, cfg.OptNodes)
		if err != nil {
			return err
		}
		// Each network's roundings draw from their own seeded RNG, so
		// the points are already execution-order independent.
		rng := stats.NewRNG(cfg.Seed)
		ratios := make([]float64, 0, cfg.Fig4bRepeats)
		for r := 0; r < cfg.Fig4bRepeats; r++ {
			s, err := maa.Round(inst, rel, rng)
			if err != nil {
				return err
			}
			ratios = append(ratios, s.Cost()/ref.Cost)
		}
		sum := stats.Summarize(ratios)
		rows[p] = row{name: net.Name(), mean: sum.Mean, p95: stats.Percentile(ratios, 95), worst: sum.Max, ref: ref}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		cfg.Stats.AddExact("fig4b", r.name, "OPT(RL-SPM)", r.ref)
		fig.AddRow(r.name, r.mean, r.p95, r.worst)
	}
	return fig, nil
}

// Fig4cd regenerates the TAA-vs-Amoeba sweep on B4 under a uniform
// fixed bandwidth (cfg.UniformCapUnits per link): fig4c reports service
// revenue, fig4d the number of accepted requests.
func Fig4cd(cfg Config) ([]*Figure, error) {
	revenue := &Figure{
		ID: "fig4c", Title: "Service revenue vs request count (B4, fixed bandwidth)", XLabel: "K",
		Series: []string{"TAA", "Amoeba", "LP bound"},
	}
	accepted := &Figure{
		ID: "fig4d", Title: "Accepted requests vs request count (B4, fixed bandwidth)", XLabel: "K",
		Series: []string{"TAA", "Amoeba"},
	}
	type row struct {
		taRevenue, amRevenue, lpRevenue float64
		taAccepted, amAccepted          int
	}
	rows := make([]row, len(cfg.Fig4cKs))
	err := forEachPoint(len(cfg.Fig4cKs), cfg.Parallel, func(p int) error {
		inst, err := buildInstance(cfg, wan.B4(), cfg.Fig4cKs[p])
		if err != nil {
			return err
		}
		caps := inst.UniformCaps(cfg.UniformCapUnits)
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		ta, err := taa.Solve(inst, caps, taa.Options{LP: lp.Options{Ctx: ctx}})
		if err != nil {
			return err
		}
		am, err := baseline.Amoeba(inst, caps)
		if err != nil {
			return err
		}
		if err := am.FeasibleUnder(caps); err != nil {
			return err
		}
		rows[p] = row{
			taRevenue: ta.Revenue, amRevenue: am.Revenue(), lpRevenue: ta.Relaxed.Revenue,
			taAccepted: ta.Schedule.NumAccepted(), amAccepted: am.NumAccepted(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, k := range cfg.Fig4cKs {
		x := strconv.Itoa(k)
		r := rows[p]
		revenue.AddRow(x, r.taRevenue, r.amRevenue, r.lpRevenue)
		accepted.AddRow(x, float64(r.taAccepted), float64(r.amAccepted))
	}
	return []*Figure{revenue, accepted}, nil
}
