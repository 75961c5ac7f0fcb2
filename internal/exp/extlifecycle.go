package exp

import (
	"context"
	"strconv"

	"metis/internal/baseline"
	"metis/internal/core"
	"metis/internal/forecast"
	"metis/internal/maa"
	"metis/internal/sched"
	"metis/internal/serve"
	"metis/internal/stats"
	"metis/internal/taa"
	"metis/internal/wan"
)

// ExtensionMultiCycle regenerates the multi-cycle lifecycle experiment
// (beyond the paper): six billing cycles of demand growing 15% per
// cycle on SUB-B4, scheduled cycle by cycle; series report cumulative
// profit after each cycle. Series:
//
//   - Metis: core.Solve on each whole cycle,
//   - EcoFlow: the EcoFlow baseline on each whole cycle,
//   - Accept-all: every request served at MAA-minimized cost,
//   - Forecast-online: each cycle admitted online through a fresh
//     serve.Server — greedy in cycle 0, then the taa policy into MAA's
//     purchase for a workload synthesized from the EWMA forecast of the
//     cycles so far.
func ExtensionMultiCycle(cfg Config) (*Figure, error) {
	const (
		cycles = 6
		baseK  = 120
		growth = 0.15
	)
	fig := &Figure{
		ID: "ext-multicycle", Title: "Cumulative profit across billing cycles (SUB-B4, +15%/cycle)", XLabel: "cycle",
		Series: []string{"Metis", "EcoFlow", "Accept-all", "Forecast-online"},
	}
	metisCfg := cfg.metisConfig()
	fc, err := forecast.NewEWMA(0.5)
	if err != nil {
		return nil, err
	}
	// schedule decides one cycle of a series and returns its profit.
	type schedule func(inst *sched.Instance, rng *stats.RNG) (float64, error)
	series := []schedule{
		func(inst *sched.Instance, rng *stats.RNG) (float64, error) {
			mc := metisCfg
			mc.Seed = int64(rng.Intn(1 << 30))
			res, err := core.Solve(inst, mc)
			if err != nil {
				return 0, err
			}
			return res.Profit, nil
		},
		func(inst *sched.Instance, _ *stats.RNG) (float64, error) {
			res, err := baseline.EcoFlow(inst)
			if err != nil {
				return 0, err
			}
			return res.Profit, nil
		},
		func(inst *sched.Instance, rng *stats.RNG) (float64, error) {
			res, err := maa.Solve(inst, maa.Options{Rounds: cfg.MAARounds, RNG: rng})
			if err != nil {
				return 0, err
			}
			return res.Schedule.Revenue() - res.Cost, nil
		},
		func(inst *sched.Instance, rng *stats.RNG) (float64, error) {
			return forecastOnlineCycle(inst, fc, rng)
		},
	}
	// One point per series. Each draws cycle c's workload from generator
	// seed Seed+c and owns one RNG seeded with Seed, so the series are
	// independent of each other and of the sweep's parallelism.
	profits := make([][cycles]float64, len(series))
	err = forEachPoint(len(series), cfg.Parallel, func(p int) error {
		net := wan.SubB4()
		rng := stats.NewRNG(cfg.Seed)
		k := float64(baseK)
		for c := 0; c < cycles; c++ {
			cc := cfg
			cc.Seed = cfg.Seed + int64(c)
			inst, err := buildInstance(cc, net, int(k+0.5))
			if err != nil {
				return err
			}
			if profits[p][c], err = series[p](inst, rng); err != nil {
				return err
			}
			k *= 1 + growth
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cum := make([]float64, len(series))
	for c := 0; c < cycles; c++ {
		for i := range cum {
			cum[i] += profits[i][c]
		}
		fig.AddRow(strconv.Itoa(c), cum...)
	}
	return fig, nil
}

// forecastOnlineCycle admits inst's requests online and returns the
// cycle's profit. With no forecast yet (or an empty synthesized
// workload) admission is greedy; otherwise it is the taa policy into
// MAA's purchase for a workload synthesized from fc's forecast. The
// observed cycle is then folded into fc.
func forecastOnlineCycle(inst *sched.Instance, fc *forecast.EWMA, rng *stats.RNG) (float64, error) {
	var pol serve.Policy = serve.GreedyPolicy{}
	if m := fc.Forecast(); m != nil {
		planInst, err := forecast.PlanInstance(inst.Network(), m, inst.Slots(), sched.DefaultPathsPerRequest, rng)
		if err != nil {
			return 0, err
		}
		if planInst.NumRequests() > 0 {
			planRes, err := maa.Solve(planInst, maa.Options{Rounds: 3, RNG: rng})
			if err != nil {
				return 0, err
			}
			pol = &serve.TAAPolicy{Plan: planRes.Charged}
		}
	}
	res, err := runCycle(context.Background(), inst.Network(), inst.Slots(), pol, inst.Requests())
	if err != nil {
		return 0, err
	}
	fc.Update(forecast.Observe(inst.Network(), inst.Requests()))
	return res.Profit, nil
}

// ExtensionResilience regenerates the link-failure experiment (beyond
// the paper): Metis schedules a cycle; then, for every link in turn,
// the link fails, affected requests are re-admitted by TAA onto the
// *already-purchased* spare capacity of surviving links (no new
// purchase mid-cycle), and the profit retention is measured. Series
// report the retention statistics over all single-link failures.
func ExtensionResilience(cfg Config) (*Figure, error) {
	fig := &Figure{
		ID: "ext-resilience", Title: "Profit retention under single-link failure (SUB-B4)", XLabel: "K",
		Series: []string{"avg retention", "min retention", "avg affected", "avg recovered"},
	}
	type row struct{ avgRet, minRet, avgAffected, avgRecovered float64 }
	rows := make([]row, len(cfg.Fig3Ks))
	err := forEachPoint(len(cfg.Fig3Ks), cfg.Parallel, func(p int) error {
		k := cfg.Fig3Ks[p]
		inst, err := buildInstance(cfg, wan.SubB4(), k)
		if err != nil {
			return err
		}
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		metis, err := core.SolveCtx(ctx, inst, cfg.metisConfig())
		if err != nil {
			return err
		}
		if metis.Profit <= 0 {
			rows[p] = row{avgRet: 1, minRet: 1}
			return nil
		}

		var (
			sumRet, minRet         = 0.0, 1.0
			sumAffected, sumRecovd = 0.0, 0.0
			links                  = inst.Network().NumLinks()
		)
		for fail := 0; fail < links; fail++ {
			ret, affected, recovered, err := failAndRecover(inst, metis, fail)
			if err != nil {
				return err
			}
			sumRet += ret
			if ret < minRet {
				minRet = ret
			}
			sumAffected += float64(affected)
			sumRecovd += float64(recovered)
		}
		n := float64(links)
		rows[p] = row{avgRet: sumRet / n, minRet: minRet, avgAffected: sumAffected / n, avgRecovered: sumRecovd / n}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, k := range cfg.Fig3Ks {
		r := rows[p]
		fig.AddRow(strconv.Itoa(k), r.avgRet, r.minRet, r.avgAffected, r.avgRecovered)
	}
	return fig, nil
}

// failAndRecover fails one link of a solved schedule, re-admits the
// affected requests via TAA on the surviving spare capacity, and
// returns the profit retention plus affected/recovered counts. The
// original bandwidth purchase is sunk cost.
func failAndRecover(inst *sched.Instance, metis *core.Result, fail int) (retention float64, affected, recovered int, err error) {
	s := metis.Schedule
	slots := inst.Slots()

	// Split accepted requests into unaffected and affected.
	var affectedIdx []int
	surviving := sched.NewSchedule(inst)
	for _, i := range s.Accepted() {
		uses := false
		for _, e := range inst.Path(i, s.Choice(i)).Links {
			if e == fail {
				uses = true
				break
			}
		}
		if uses {
			affectedIdx = append(affectedIdx, i)
			continue
		}
		if err := surviving.Assign(i, s.Choice(i)); err != nil {
			return 0, 0, 0, err
		}
	}
	affected = len(affectedIdx)
	if affected == 0 {
		return 1, 0, 0, nil
	}

	// Residual capacity: purchased units minus surviving loads; the
	// failed link has none.
	residual := make([][]float64, inst.Network().NumLinks())
	loads := surviving.Loads()
	for e := range residual {
		residual[e] = make([]float64, slots)
		if e == fail {
			continue
		}
		for t := 0; t < slots; t++ {
			r := float64(metis.Charged[e]) - loads[e][t]
			if r < 0 {
				r = 0
			}
			residual[e][t] = r
		}
	}

	sub, err := inst.Subset(affectedIdx)
	if err != nil {
		return 0, 0, 0, err
	}
	res, err := taa.SolveVar(sub, residual, taa.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	recovered = res.Schedule.NumAccepted()

	// Revenue after failure; the original purchase is sunk.
	revenue := surviving.Revenue() + res.Revenue
	profitAfter := revenue - metis.Cost
	return profitAfter / metis.Profit, affected, recovered, nil
}
