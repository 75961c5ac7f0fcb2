package exp

import (
	"strconv"

	"metis/internal/baseline"
	"metis/internal/core"
	"metis/internal/wan"
)

// Fig5 regenerates Fig. 5a–5c: Metis against EcoFlow on B4. Returned
// figures:
//
//   - fig5a: service profit,
//   - fig5b: number of accepted requests,
//   - fig5c: average link utilization (against each solution's own
//     purchased bandwidth).
func Fig5(cfg Config) ([]*Figure, error) {
	profit := &Figure{
		ID: "fig5a", Title: "Service profit vs request count (B4)", XLabel: "K",
		Series: []string{"Metis", "EcoFlow"},
	}
	accepted := &Figure{
		ID: "fig5b", Title: "Accepted requests vs request count (B4)", XLabel: "K",
		Series: []string{"Metis", "EcoFlow"},
	}
	util := &Figure{
		ID: "fig5c", Title: "Average link utilization vs request count (B4)", XLabel: "K",
		Series: []string{"Metis", "EcoFlow"},
	}
	type row struct {
		metisProfit, ecoProfit   float64
		metisAccepted, ecoAccept int
		metisUtil, ecoUtil       float64
		rounds                   []core.RoundStats
	}
	rows := make([]row, len(cfg.Fig5Ks))
	err := forEachPoint(len(cfg.Fig5Ks), cfg.Parallel, func(p int) error {
		inst, err := buildInstance(cfg, wan.B4(), cfg.Fig5Ks[p])
		if err != nil {
			return err
		}
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		metis, err := core.SolveCtx(ctx, inst, cfg.metisConfig())
		if err != nil {
			return err
		}
		eco, err := baseline.EcoFlow(inst)
		if err != nil {
			return err
		}
		rows[p] = row{
			metisProfit: metis.Profit, ecoProfit: eco.Profit,
			metisAccepted: metis.Schedule.NumAccepted(), ecoAccept: eco.NumAccepted,
			metisUtil: metis.Schedule.ChargedUtilization().Avg, ecoUtil: eco.Utilization.Avg,
			rounds: metis.Rounds,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, k := range cfg.Fig5Ks {
		x := strconv.Itoa(k)
		r := rows[p]
		cfg.Stats.AddMetis("fig5", x, r.rounds)
		profit.AddRow(x, r.metisProfit, r.ecoProfit)
		accepted.AddRow(x, float64(r.metisAccepted), float64(r.ecoAccept))
		util.AddRow(x, r.metisUtil, r.ecoUtil)
	}
	return []*Figure{profit, accepted, util}, nil
}
