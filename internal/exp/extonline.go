package exp

import (
	"context"
	"strconv"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/lp"
	"metis/internal/maa"
	"metis/internal/serve"
	"metis/internal/stats"
	"metis/internal/wan"
)

// ExtensionOnline regenerates the online-arrival extension experiment
// (beyond the paper, which treats the whole billing cycle as known):
// requests arrive at their start slots and must be decided immediately.
// Every online series is a serve policy run through the daemon's own
// tick loop (serve.Server.RunCycles). Series:
//
//   - Greedy: buy-as-you-go marginal-cost admission,
//   - Prov-TAA: the taa policy, per-batch TAA admission into an
//     MAA-planned capacity plan,
//   - Metis-inc/1, Metis-inc/2: the metis-incremental policy replanning
//     every epoch and every second epoch,
//   - Offline: hindsight Metis on the full cycle (upper reference).
//
// The capacity plan is built by MAA on a forecast workload of the same
// size but a different seed — the provider plans on history, not on the
// actual future.
func ExtensionOnline(cfg Config) (*Figure, error) {
	fig := &Figure{
		ID: "ext-online", Title: "Online arrival policies vs hindsight Metis (SUB-B4)", XLabel: "K",
		Series: []string{"Greedy", "Prov-TAA", "Metis-inc/1", "Metis-inc/2", "Offline"},
	}
	rows := make([][]float64, len(cfg.Fig3Ks))
	err := forEachPoint(len(cfg.Fig3Ks), cfg.Parallel, func(p int) error {
		k := cfg.Fig3Ks[p]
		inst, err := buildInstance(cfg, wan.SubB4(), k)
		if err != nil {
			return err
		}

		// Forecast-based capacity plan (point-local RNG).
		fc := cfg
		fc.Seed = cfg.Seed + 1000
		forecast, err := buildInstance(fc, wan.SubB4(), k)
		if err != nil {
			return err
		}
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		planRes, err := maa.Solve(forecast, maa.Options{LP: lp.Options{Ctx: ctx}, Rounds: cfg.MAARounds, RNG: stats.NewRNG(cfg.Seed)})
		if err != nil {
			return err
		}
		metisCfg := cfg.metisConfig()
		policies := []serve.Policy{
			serve.GreedyPolicy{},
			&serve.TAAPolicy{Plan: planRes.Charged},
			&serve.MetisPolicy{ReplanEvery: 1, Config: metisCfg},
			&serve.MetisPolicy{ReplanEvery: 2, Config: metisCfg},
		}
		for _, pol := range policies {
			res, err := runCycle(ctx, inst.Network(), inst.Slots(), pol, inst.Requests())
			if err != nil {
				return err
			}
			rows[p] = append(rows[p], res.Profit)
		}
		offline, err := core.SolveCtx(ctx, inst, metisCfg)
		if err != nil {
			return err
		}
		rows[p] = append(rows[p], offline.Profit)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, k := range cfg.Fig3Ks {
		fig.AddRow(strconv.Itoa(k), rows[p]...)
	}
	return fig, nil
}

// runCycle decides reqs as one billing cycle through a fresh
// serve.Server under pol. The hour-long epoch keeps the tick budget from
// binding, so the result is deterministic.
func runCycle(ctx context.Context, net *wan.Network, slots int, pol serve.Policy, reqs []demand.Request) (serve.CycleResult, error) {
	srv, err := serve.New(serve.Config{Net: net, Slots: slots, Epoch: time.Hour, Policy: pol})
	if err != nil {
		return serve.CycleResult{}, err
	}
	res, err := srv.RunCycles(ctx, [][]demand.Request{reqs})
	if err != nil {
		return serve.CycleResult{}, err
	}
	return res[0], nil
}
